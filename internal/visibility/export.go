package visibility

import (
	"cmp"
	"slices"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
)

// This file is the visibility half of SafeHome's off-loop read path: the
// controller (single-threaded, loop-owned) maintains cheap dirty-tracking as
// it mutates state, and Export folds only what changed since the previous
// export into an immutable StateExport that the home runtime publishes
// through an atomic pointer. Readers then answer Results/Counts/state
// queries from the latest export without ever entering the runtime's
// mailbox.
//
// The contract for every structure here is the same:
//
//   - Everything reachable from a *StateExport is immutable once the export
//     is returned. Readers on any goroutine may traverse it freely.
//   - Building export N+1 from export N is proportional to the routines and
//     devices touched since N, never to the open set or the total history.
//
// Three idioms make that cheap:
//
//   - Write-once slots. A routine's Result can only change while the routine
//     is unfinished. Finished results are written into a chunked slot array
//     exactly once (at the first export after they finish) and shared by
//     every later export. Nothing is ever re-copied.
//   - A copy-on-write open-routine overlay. Still-open routines have no
//     final slot yet; an export reaches their records through a persistent
//     overlay: an ascending spine of {chunk index, *[64]*Result} entries,
//     each pointer an immutable copy of one open routine's record. The
//     controller marks a routine dirty at every record mutation, and Export
//     copies only the dirty records and the overlay chunks holding them;
//     every other chunk is shared with the previous export, and a chunk
//     whose routines all finished is dropped. The spine is split into a
//     shared head and a short tail holding the newest chunks, where the
//     churn of fresh routines lands, so an export copies a few tail entries
//     rather than the spine. A standing backlog of thousands of open
//     routines therefore costs nothing per export.
//   - Bounded prefixes. Shared backing arrays only grow: an export records
//     how many entries it may read, and the single writer only writes at
//     indexes beyond every published bound, so disjoint-index access needs
//     no synchronization beyond the atomic publish itself.

// resultChunkShift sizes result chunks at 64 entries (~9 KB of final
// outcomes per chunk, allocated once per 64 routines); overlay chunks cover
// the same 64 routines with 64 pointers.
const (
	resultChunkShift = 6
	resultChunkSize  = 1 << resultChunkShift
)

// resultChunk is one fixed-size block of final per-routine outcomes. Slot
// i holds routine ID (chunkIndex<<shift)+i+1, written exactly once, at the
// first export after that routine finished.
type resultChunk [resultChunkSize]Result

// openRecords is one immutable overlay chunk: entry i points at a copy of
// routine (chunkIndex<<shift)+i+1's record if that routine was open at the
// export, and is nil otherwise (its outcome is then in the final slot).
type openRecords [resultChunkSize]*Result

// openChunk is one overlay spine entry: the chunk index, how many of its
// routines are open, and their records.
type openChunk struct {
	ci, open int32
	recs     *openRecords
}

func cmpChunk(oc openChunk, ci int32) int { return cmp.Compare(oc.ci, ci) }

// maxOverlayTail bounds the overlay tail: past it, the older half of the
// tail is folded into a fresh head, and the newer half, where fresh
// routines still churn, stays in the tail. Fresh routines advance through
// one new chunk per 64 submissions, so the head is rebuilt about once per
// 4*64 routines unless a change lands in it.
const maxOverlayTail = 8

// ResultsExport is an immutable view of per-routine outcomes in submission
// order. Routine IDs are assigned densely from 1, so result i (0-based)
// belongs to routine ID i+1 and single-result lookup is O(1) — plus a
// binary search over the overlay spine.
type ResultsExport struct {
	// chunks is the shared spine of write-once final outcomes, bounded by n.
	chunks []*resultChunk
	n      int
	// head and tail carry the routines that were still unfinished at
	// export time: their final slots are not written yet, so their current
	// records are captured here instead. Both runs ascend by chunk index,
	// every tail index above every head index. Each run, and each chunk in
	// it, is shared with the neighbouring exports wherever nothing changed
	// in between.
	head, tail []openChunk
}

// Len returns the number of results.
func (e *ResultsExport) Len() int { return e.n }

// openRecs returns the overlay chunk of result chunk ci, or nil.
func (e *ResultsExport) openRecs(ci int32) *openRecords {
	run := e.head
	if len(e.tail) > 0 && e.tail[0].ci <= ci {
		run = e.tail
	}
	if o, ok := slices.BinarySearchFunc(run, ci, cmpChunk); ok {
		return run[o].recs
	}
	return nil
}

// openCount returns the number of routines that were open at export time.
func (e *ResultsExport) openCount() int {
	n := 0
	for _, run := range [2][]openChunk{e.head, e.tail} {
		for _, oc := range run {
			n += int(oc.open)
		}
	}
	return n
}

// At returns result i (0-based, submission order).
func (e *ResultsExport) At(i int) Result {
	ci, k := i>>resultChunkShift, i&(resultChunkSize-1)
	if recs := e.openRecs(int32(ci)); recs != nil && recs[k] != nil {
		return *recs[k]
	}
	return e.chunks[ci][k]
}

// AppendTo materializes the results into dst and returns the extended slice.
func (e *ResultsExport) AppendTo(dst []Result) []Result {
	runs := [2][]openChunk{e.head, e.tail}
	r, o := 0, 0 // cursor: runs[r][o] is the next overlay chunk
	for first := 0; first < e.n; first += resultChunkSize {
		ci := first >> resultChunkShift
		for r < len(runs) && o == len(runs[r]) {
			r, o = r+1, 0
		}
		var recs *openRecords
		if r < len(runs) && int(runs[r][o].ci) == ci {
			recs = runs[r][o].recs
			o++
		}
		final := e.chunks[ci]
		for k := range min(resultChunkSize, e.n-first) {
			if recs != nil && recs[k] != nil {
				dst = append(dst, *recs[k])
			} else {
				dst = append(dst, final[k])
			}
		}
	}
	return dst
}

// stateChunkSize sizes device-state chunks; homes have tens of devices, so
// the spine is one or two pointers and a dirty chunk copy is 16 entries.
const (
	stateChunkShift = 4
	stateChunkSize  = 1 << stateChunkShift
)

type stateChunk [stateChunkSize]device.State

// StatesExport is a persistent copy-on-write map of committed device states:
// slots are interned per device (append-only), states live in fixed-size
// chunks, and an export shares every chunk the commits since the previous
// export did not touch. Re-asserting an unchanged state marks nothing, so
// steady workloads share the whole structure between exports.
type StatesExport struct {
	keys   []device.ID // slot -> device; shared append-only array, bounded by n
	chunks []*stateChunk
	slots  map[device.ID]int // immutable; replaced (copied) only when a device is added
	n      int
}

// Len returns the number of devices with a committed state.
func (e *StatesExport) Len() int { return e.n }

// Get returns the committed state of one device.
func (e *StatesExport) Get(d device.ID) (device.State, bool) {
	slot, ok := e.slots[d]
	if !ok || slot >= e.n {
		return device.StateUnknown, false
	}
	return e.chunks[slot>>stateChunkShift][slot&(stateChunkSize-1)], true
}

// AppendTo materializes the committed states into dst (allocating it if nil)
// and returns the map.
func (e *StatesExport) AppendTo(dst map[device.ID]device.State) map[device.ID]device.State {
	if dst == nil {
		dst = make(map[device.ID]device.State, e.n)
	}
	for slot := 0; slot < e.n; slot++ {
		dst[e.keys[slot]] = e.chunks[slot>>stateChunkShift][slot&(stateChunkSize-1)]
	}
	return dst
}

// StateExport is one epoch's immutable view of a controller: results,
// counts and committed device states, all captured at the same instant on
// the loop goroutine, so readers get an internally consistent picture
// (Routines always equals Results.Len(), Pending never disagrees with the
// statuses in the same export).
type StateExport struct {
	Results   ResultsExport
	Committed StatesExport

	Routines int
	Pending  int
	Active   int

	// Now is the controller clock at export time.
	Now time.Time
}

// exportState is the controller-side scratch behind Export: dirty tracking
// plus the mutable twins of the shared spines.
type exportState struct {
	prev *StateExport

	// touched lists the routines whose records changed since the last
	// export, in touch order with adjacent repeats dropped: the next export
	// copies the open ones into its overlay and writes the final slots of
	// the finished ones. open is scratch for one overlay chunk's rebuild.
	touched []routine.ID
	open    []*Result

	// chunks is the writer's view of the shared final-outcome spine; slots
	// and spine entries beyond the latest published bound are invisible to
	// every published export. head and tail are the latest published
	// overlay runs (immutable).
	chunks     []*resultChunk
	head, tail []openChunk

	// Committed-state twins: keys is the shared slot->device array, slots the
	// current device->slot index (copied into exports on growth), dirtySlots
	// the slots written since the last export, slotsGrown whether a device
	// was added since the last export.
	keys       []device.ID
	slots      map[device.ID]int
	dirtySlots []int
	slotsGrown bool
}

func newExportState() *exportState {
	return &exportState{slots: make(map[device.ID]int)}
}

// slot returns the final-outcome slot of a routine (valid once the spine
// covers it).
func (x *exportState) slot(rid routine.ID) *Result {
	return &x.chunks[chunkOf(rid)][slotOf(rid)]
}

// touch marks a routine's record dirty for the next export. A routine
// touched again before anything else is recorded once; other repeats are
// folded at export.
func (x *exportState) touch(rid routine.ID) {
	if n := len(x.touched); n > 0 && x.touched[n-1] == rid {
		return
	}
	x.touched = append(x.touched, rid)
}

// noteCommittedState interns a slot for d and marks it dirty.
func (x *exportState) noteCommittedState(d device.ID) int {
	slot, ok := x.slots[d]
	if !ok {
		slot = len(x.keys)
		x.keys = append(x.keys, d)
		x.slots[d] = slot
		x.slotsGrown = true
	}
	x.dirtySlots = append(x.dirtySlots, slot)
	return slot
}

// Export returns an immutable snapshot of the controller's observable state.
// It must be called from the goroutine that owns the controller (the home
// runtime's loop); the returned export may be read from any goroutine.
// Consecutive calls share everything that did not change in between, so the
// cost is proportional to the routines touched since the previous call.
func (b *base) Export() *StateExport {
	x := b.export
	n := len(b.submitted)

	out := &StateExport{
		Routines: n,
		Pending:  b.PendingCount(),
		Active:   b.active,
		Now:      b.env.Now(),
	}

	b.exportResults(out, n)
	b.exportCommitted(out)

	x.dirtySlots = x.dirtySlots[:0]
	x.slotsGrown = false
	x.prev = out
	return out
}

func (b *base) exportResults(out *StateExport, n int) {
	x := b.export

	// Grow the spine to cover every submitted routine. Appends only touch
	// indexes beyond previously published bounds (and a reallocation leaves
	// old exports' arrays untouched), so sharing the slice is safe.
	for len(x.chunks)<<resultChunkShift < n {
		x.chunks = append(x.chunks, new(resultChunk))
	}

	if len(x.touched) > 0 {
		b.foldTouched()
	}
	out.Results = ResultsExport{chunks: x.chunks, n: n, head: x.head, tail: x.tail}
}

// foldTouched folds the routines touched since the last export into the
// overlay. Touches at chunks up to the head's last go to the head, the rest
// (the newest routines, as a rule) to the tail; a run is copied only if one
// of its chunks changed.
func (b *base) foldTouched() {
	x := b.export
	touched := x.touched
	slices.Sort(touched)
	touched = slices.Compact(touched)
	split := 0
	if len(x.head) > 0 {
		past := x.head[len(x.head)-1].ci + 1
		split, _ = slices.BinarySearchFunc(touched, past, func(rid routine.ID, ci int32) int {
			return cmp.Compare(chunkOf(rid), ci)
		})
	}
	x.head = b.foldRun(x.head, touched[:split])
	x.tail = b.foldRun(x.tail, touched[split:])
	if len(x.tail) > maxOverlayTail {
		older := len(x.tail) - maxOverlayTail/2
		x.head, x.tail = slices.Concat(x.head, x.tail[:older]), x.tail[older:]
	}
	x.touched = x.touched[:0]
}

// foldRun applies sorted touched routines to one overlay run, chunk by
// chunk: untouched chunks are shared, a touched chunk is copied with fresh
// record copies for its touched open routines and nil for its finished
// ones, and a chunk with no open routine left is dropped. It returns prev
// itself if no chunk changed, else a new run (nil if empty).
func (b *base) foldRun(prev []openChunk, touched []routine.ID) []openChunk {
	groups := 0
	for i, rid := range touched {
		if i == 0 || chunkOf(rid) != chunkOf(touched[i-1]) {
			groups++
		}
	}
	var run []openChunk // nil until some chunk changes
	p := 0              // prev[:p] is folded (into run, once it exists)
	for ; len(touched) > 0; groups-- {
		ci := chunkOf(touched[0])
		g := 1
		for g < len(touched) && chunkOf(touched[g]) == ci {
			g++
		}
		group := touched[:g]
		touched = touched[g:]

		q, found := slices.BinarySearchFunc(prev[p:], ci, cmpChunk)
		q += p
		if run != nil {
			run = append(run, prev[p:q]...)
		}
		p = q
		var recs openRecords
		var open int32
		if found {
			recs, open = *prev[q].recs, prev[q].open
			p++
		}

		if !b.foldGroup(group, &recs, &open) {
			if run != nil && found {
				run = append(run, prev[q])
			}
			continue
		}
		if run == nil {
			run = make([]openChunk, q, len(prev)+groups)
			copy(run, prev[:q])
		}
		if open > 0 {
			c := new(openRecords)
			*c = recs
			run = append(run, openChunk{ci: ci, open: open, recs: c})
		}
	}
	if run == nil {
		return prev
	}
	run = append(run, prev[p:]...)
	if len(run) == 0 {
		return nil
	}
	return run
}

// foldGroup applies one chunk's touched routines to a copy of its overlay
// records and reports whether anything changed. An open routine gets a
// fresh copy of its record. A finished routine gets its final slot written
// and a nil overlay entry, and its live record is retired: the slot is now
// the only storage of a finished outcome, shared by the controller's own
// reads and every later export, so memory and GC scan work don't double.
// Older exports reach the routine through their own overlays (it was open
// when they were cut), so no published reader resolves a slot before this
// write is published.
func (b *base) foldGroup(group []routine.ID, recs *openRecords, open *int32) bool {
	x := b.export
	changed := false
	x.open = x.open[:0]
	for _, rid := range group {
		res, live := b.results[rid]
		if live && !res.Status.Finished() {
			x.open = append(x.open, res)
			continue
		}
		if live {
			*x.slot(rid) = *res
			delete(b.results, rid)
		}
		if k := slotOf(rid); recs[k] != nil {
			recs[k] = nil
			*open--
			changed = true
		}
	}
	if len(x.open) > 0 {
		copies := make([]Result, len(x.open))
		for j, res := range x.open {
			copies[j] = *res
			k := slotOf(res.ID)
			if recs[k] == nil {
				*open++
			}
			recs[k] = &copies[j]
		}
		clear(x.open)
		changed = true
	}
	return changed
}

// chunkOf and slotOf locate a routine's result: chunk index and the
// position inside the chunk.
func chunkOf(rid routine.ID) int32 { return int32((int64(rid) - 1) >> resultChunkShift) }
func slotOf(rid routine.ID) int64  { return (int64(rid) - 1) & (resultChunkSize - 1) }

func (b *base) exportCommitted(out *StateExport) {
	x := b.export
	if x.prev != nil && len(x.dirtySlots) == 0 && !x.slotsGrown {
		out.Committed = x.prev.Committed
		return
	}

	nSlots := len(x.keys)
	nChunks := (nSlots + stateChunkSize - 1) >> stateChunkShift
	var prev *StatesExport
	if x.prev != nil {
		prev = &x.prev.Committed
	}

	dirty := make(map[int]struct{}, len(x.dirtySlots))
	for _, slot := range x.dirtySlots {
		dirty[slot>>stateChunkShift] = struct{}{}
	}
	prevChunks := 0
	if prev != nil {
		prevChunks = (prev.n + stateChunkSize - 1) >> stateChunkShift
	}

	chunks := make([]*stateChunk, nChunks)
	for ci := 0; ci < nChunks; ci++ {
		_, isDirty := dirty[ci]
		if !isDirty && ci < prevChunks && (ci+1)<<stateChunkShift <= prev.n {
			chunks[ci] = prev.chunks[ci] // untouched full chunk: share it
			continue
		}
		c := new(stateChunk)
		if ci < prevChunks {
			*c = *prev.chunks[ci]
		}
		first := ci << stateChunkShift
		last := first + stateChunkSize
		if last > nSlots {
			last = nSlots
		}
		for slot := first; slot < last; slot++ {
			if isDirty || slot >= prevSlotBound(prev) {
				c[slot&(stateChunkSize-1)] = b.committed[x.keys[slot]]
			}
		}
		chunks[ci] = c
	}

	var slots map[device.ID]int
	if !x.slotsGrown && prev != nil {
		slots = prev.slots
	} else {
		// The live index mutated since the last export (or this is the first
		// export): publish a private copy and keep mutating the live one.
		slots = make(map[device.ID]int, len(x.slots))
		for d, s := range x.slots {
			slots[d] = s
		}
	}

	out.Committed = StatesExport{keys: x.keys, chunks: chunks, slots: slots, n: nSlots}
}

func prevSlotBound(prev *StatesExport) int {
	if prev == nil {
		return 0
	}
	return prev.n
}
