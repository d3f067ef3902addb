package visibility

import (
	"fmt"
	"time"

	"safehome/internal/device"
	"safehome/internal/lineage"
	"safehome/internal/order"
	"safehome/internal/routine"
)

// evController implements Eventual Visibility (§4–§5): virtual locks tracked
// in a lineage table, early (positional) lock acquisition, pre-/post-leasing,
// commit compaction, failure/restart serialization, and a pluggable
// scheduler (FCFS, JiT or Timeline).
type evController struct {
	base

	table *lineage.Table
	graph *order.Graph
	sched evScheduler

	runs map[routine.ID]*evRun
	// waitQ is the scheduler wait queue. Entries are dequeued by clearing
	// their queued flag (no splicing); the schedulers compact cleared and
	// finished entries out in a single pass during their scans, so queue
	// maintenance is O(n) per scan instead of one O(n) splice per removal.
	waitQ   []*evRun
	waiters map[device.ID][]*evRun
}

// evRun is the controller-side execution state of one routine.
type evRun struct {
	res *Result
	r   *routine.Routine
	id  routine.ID

	placed  bool // accesses are in the lineage table
	running bool // released to execute (scheduler decision)
	done    bool
	queued  bool // live entry in the controller's wait queue

	idx         int
	inflight    bool
	inflightDev device.ID

	executed []cmdRecord

	// The per-device maps below are allocated lazily (reads of a nil map are
	// fine; the mark/set helpers initialize on first write), so submitting a
	// routine allocates no maps — many routines finish without ever
	// pre-leasing or arming a timer.
	firstTouched  map[device.ID]bool
	lastTouchDone map[device.ID]bool

	doomed     bool
	doomReason string

	blockedOn device.ID

	// preLeasedFrom records, per device, the routine this run was pre-leased
	// the lock from (the lease source); used for revocation bookkeeping.
	preLeasedFrom map[device.ID]routine.ID
	leaseTimers   map[device.ID]func()

	prioritized bool
	ttlCancel   func()
}

func newEVRun(res *Result, r *routine.Routine) *evRun {
	return &evRun{res: res, r: r, id: res.ID}
}

func (run *evRun) markFirstTouched(d device.ID) {
	if run.firstTouched == nil {
		run.firstTouched = make(map[device.ID]bool, 4)
	}
	run.firstTouched[d] = true
}

func (run *evRun) markLastTouchDone(d device.ID) {
	if run.lastTouchDone == nil {
		run.lastTouchDone = make(map[device.ID]bool, 4)
	}
	run.lastTouchDone[d] = true
}

func (run *evRun) setPreLeasedFrom(d device.ID, src routine.ID) {
	if run.preLeasedFrom == nil {
		run.preLeasedFrom = make(map[device.ID]routine.ID, 2)
	}
	run.preLeasedFrom[d] = src
}

func (run *evRun) setLeaseTimer(d device.ID, cancel func()) {
	if run.leaseTimers == nil {
		run.leaseTimers = make(map[device.ID]func(), 2)
	}
	run.leaseTimers[d] = cancel
}

func newEV(env Env, initial map[device.ID]device.State, opts Options) *evController {
	c := &evController{
		base:    newBase(env, initial, opts),
		table:   lineage.NewTable(initial),
		graph:   order.NewGraph(),
		runs:    make(map[routine.ID]*evRun),
		waiters: make(map[device.ID][]*evRun),
	}
	switch opts.Scheduler {
	case SchedFCFS:
		c.sched = &fcfsScheduler{c: c}
	case SchedJiT:
		c.sched = &jitScheduler{c: c}
	default:
		c.sched = &tlScheduler{c: c}
	}
	return c
}

func (c *evController) Model() Model { return EV }

// SchedulerName reports the active scheduling policy.
func (c *evController) SchedulerName() string { return c.sched.kind().String() }

// Table exposes the lineage table for tests and the hub's inspection API.
func (c *evController) Table() *lineage.Table { return c.table }

func (c *evController) Submit(r *routine.Routine) routine.ID {
	res, cp := c.assign(r)
	run := newEVRun(res, cp)
	c.runs[cp.ID] = run
	c.sched.onSubmit(run)
	c.checkInvariants("submit")
	return cp.ID
}

// Serialization returns the current serialization order implied by the
// precedence graph: committed and in-flight routines, failure events, and
// restart events. Aborted routines never appear (§3).
func (c *evController) Serialization() []order.Node { return c.graph.Order() }

// CompactBefore folds released lock-access history whose estimated hold
// ended before t into the committed states (lineage.Table.CompactBefore) and
// keeps the controller's committed-state view in sync. The home runtime
// calls this on its HistoryHorizon cadence so per-device gap scans stay
// bounded under sustained load. It returns the number of accesses folded.
func (c *evController) CompactBefore(t time.Time) int {
	n := c.table.CompactBefore(t)
	if n > 0 {
		for _, d := range c.table.Devices() {
			if st := c.table.Committed(d); st != device.StateUnknown && c.committed[d] != st {
				c.setCommitted(d, st)
			}
		}
		c.checkInvariants("compact-before")
	}
	return n
}

// --- scheduler plumbing -----------------------------------------------------

// evScheduler is the strategy interface for §5's scheduling policies.
type evScheduler interface {
	kind() SchedulerKind
	// onSubmit decides where (and when) the new routine is placed.
	onSubmit(run *evRun)
	// onFree is invoked whenever a lock-access on d is released or removed.
	onFree(d device.ID)
	// onRoutineDone is invoked after a routine commits or aborts.
	onRoutineDone()
}

// placeAtEnd appends Scheduled accesses for every device the routine touches
// to the tail of the corresponding lineages, and records the implied
// precedence edges. Appending is always consistent with the existing order
// (the routine becomes a sink of the precedence graph).
func (c *evController) placeAtEnd(run *evRun) {
	now := c.env.Now()
	node := order.RoutineNode(run.id)
	c.graph.AddNode(node)
	for _, d := range run.r.Devices() {
		l := c.table.Lineage(d)
		start := c.table.TailStart(d, now)
		for _, a := range l.Accesses {
			// Ignore duplicate-edge errors; appending cannot create cycles.
			_ = c.graph.AddEdge(order.RoutineNode(a.Routine), node)
		}
		// Compaction may have emptied the lineage, but the folded baseline
		// writer still precedes every later access (the node being placed has
		// no outgoing edges yet, so this cannot cycle).
		if lf := c.table.LastFolded(d); lf != routine.None && lf != run.id && c.graph.Has(order.RoutineNode(lf)) {
			_ = c.graph.AddEdge(order.RoutineNode(lf), node)
		}
		err := c.table.PlaceAt(d, len(l.Accesses), lineage.Access{
			Routine:  run.id,
			Status:   lineage.Scheduled,
			Start:    start,
			Duration: run.r.HoldEstimate(d, c.opts.DefaultShort),
		})
		if err != nil {
			panic(fmt.Sprintf("visibility: placeAtEnd: %v", err))
		}
	}
	run.placed = true
}

// startRun releases the routine for execution; it will acquire each device's
// lock lazily as it reaches commands on that device.
func (c *evController) startRun(run *evRun) {
	if run.running || run.done {
		return
	}
	run.running = true
	if run.ttlCancel != nil {
		run.ttlCancel()
		run.ttlCancel = nil
	}
	c.advance(run)
}

// advance drives a routine's execution state machine: acquire the next
// command's lock (or block), evaluate its condition, and execute it.
func (c *evController) advance(run *evRun) {
	if run.done || !run.running || run.inflight {
		return
	}
	if run.doomed {
		c.abortRun(run)
		return
	}
	if run.idx >= len(run.r.Commands) {
		c.commitRun(run)
		return
	}
	cmd := run.r.Commands[run.idx]
	d := cmd.Device

	if !c.table.CanAcquire(d, run.id) {
		run.blockedOn = d
		c.waiters[d] = append(c.waiters[d], run)
		return
	}
	run.blockedOn = ""

	if st, _ := c.table.Status(d, run.id); st == lineage.Scheduled {
		if err := c.table.SetStatus(d, run.id, lineage.Acquired); err != nil {
			panic(fmt.Sprintf("visibility: acquire: %v", err))
		}
		if src, leased := run.preLeasedFrom[d]; leased {
			// The lease clock starts ticking when the destination actually
			// begins using the device.
			c.armPreLeaseRevocation(run, d, src)
		}
	}
	if run.res.Started.IsZero() {
		c.markStarted(run.res)
	}

	// Conditional commands read the home through the lineage table's inferred
	// current state (Fig 8) — never by querying devices.
	if cmd.Condition != nil && c.table.CurrentState(cmd.Condition.Device) != cmd.Condition.Equals {
		c.countSkipped(run.res)
		c.emit(Event{Time: c.env.Now(), Kind: EvCommandSkipped, Routine: run.id, Device: d})
		c.afterCommandOn(run, run.idx)
		run.idx++
		c.advance(run)
		return
	}

	idx := run.idx
	run.inflight = true
	run.inflightDev = d
	c.env.Exec(run.id, cmd, c.opts.hold(cmd), func(err error) {
		c.onCommandDone(run, idx, err)
	})
}

func (c *evController) onCommandDone(run *evRun, idx int, err error) {
	run.inflight = false
	run.inflightDev = ""
	if run.done {
		return
	}
	cmd := run.r.Commands[idx]
	d := cmd.Device
	if err != nil {
		c.emit(Event{Time: c.env.Now(), Kind: EvCommandFailed, Routine: run.id, Device: d, Detail: err.Error()})
		if cmd.Must() {
			c.doom(run, fmt.Sprintf("must command on %s failed: %v", d, err))
			c.advance(run)
			return
		}
		c.countBestEffortFailure(run.res)
	} else {
		c.countExecuted(run.res)
		run.executed = append(run.executed, cmdRecord{idx: idx, dev: d, target: cmd.Target})
		run.markFirstTouched(d)
		if err := c.table.SetTarget(d, run.id, cmd.Target); err == nil {
			c.emit(Event{Time: c.env.Now(), Kind: EvCommandExecuted, Routine: run.id, Device: d, State: cmd.Target})
		}
	}
	c.afterCommandOn(run, idx)
	run.idx++
	c.advance(run)
	c.checkInvariants("command-done")
}

// afterCommandOn handles last-touch bookkeeping and post-leasing for the
// command at index idx.
func (c *evController) afterCommandOn(run *evRun, idx int) {
	d := run.r.Commands[idx].Device
	if idx != run.r.LastIndexOn(d) {
		return
	}
	run.markLastTouchDone(d)
	if timer, ok := run.leaseTimers[d]; ok {
		timer()
		delete(run.leaseTimers, d)
	}
	if c.opts.PostLease && c.canPostLease(run, d) {
		c.releaseAccess(run, d)
	}
}

// canPostLease checks the dirty-read restriction of §4.1: the lock may not be
// released early if this routine wrote the device and the next routine in the
// device's lineage reads it through a conditional command.
func (c *evController) canPostLease(run *evRun, d device.ID) bool {
	if !run.firstTouched[d] {
		return true // nothing was written; no dirty read possible
	}
	post := c.table.PostSet(d, run.id)
	if len(post) == 0 {
		return true
	}
	next, ok := c.runs[post[0]]
	if !ok {
		return true
	}
	for _, rd := range next.r.ReadDevices() {
		if rd == d {
			return false
		}
	}
	return true
}

// releaseAccess marks the routine's lock-access on d Released and wakes
// successors (the post-lease hand-off of Fig 6c).
func (c *evController) releaseAccess(run *evRun, d device.ID) {
	st, ok := c.table.Status(d, run.id)
	if !ok || st == lineage.Released {
		return
	}
	if err := c.table.SetStatus(d, run.id, lineage.Released); err != nil {
		panic(fmt.Sprintf("visibility: release: %v", err))
	}
	c.onFree(d)
}

// onFree wakes routines blocked on d and gives the scheduler a chance to
// start waiting routines.
func (c *evController) onFree(d device.ID) {
	blocked := c.waiters[d]
	if len(blocked) > 0 {
		// Detach the list before waking anyone: advance() may block runs on d
		// again, which must land in a fresh list, not the one being iterated.
		c.waiters[d] = nil
		for _, run := range blocked {
			c.advance(run)
		}
		if len(c.waiters[d]) == 0 {
			// Nobody re-blocked: hand the emptied backing array back so the
			// next block on d appends without allocating.
			for i := range blocked {
				blocked[i] = nil
			}
			c.waiters[d] = blocked[:0]
		}
	}
	c.sched.onFree(d)
}

// commitRun finalizes a successfully completed routine: committed states are
// updated and its lock-accesses compacted away (Fig 7).
func (c *evController) commitRun(run *evRun) {
	run.done = true
	run.running = false
	c.cancelTimers(run)
	c.markCommitted(run.res)

	devs := run.r.Devices()
	for _, d := range devs {
		// A Scheduled access means the routine never actually used the device
		// (e.g. every command on it was condition-skipped): drop the entry
		// without folding history beneath it.
		if st, ok := c.table.Status(d, run.id); ok && st == lineage.Scheduled {
			c.table.RemoveAccess(d, run.id)
		}
	}
	c.table.Compact(run.id)
	for _, d := range devs {
		c.setCommitted(d, c.table.Committed(d))
	}
	for _, d := range devs {
		c.onFree(d)
	}
	c.sched.onRoutineDone()
	c.checkInvariants("commit")
}

// doom marks a routine for abort; the abort happens as soon as no command is
// in flight.
func (c *evController) doom(run *evRun, reason string) {
	if run.done || run.doomed {
		return
	}
	run.doomed = true
	run.doomReason = reason
	if !run.inflight {
		c.abortRun(run)
	}
}

// abortRun aborts a routine: its executed commands are rolled back per §4.3
// (restore each device it was the last acquirer of to the previous lineage
// entry's state), its lock-accesses and graph node are removed, and waiting
// routines are given a chance to proceed.
func (c *evController) abortRun(run *evRun) {
	if run.done {
		return
	}
	run.done = true
	run.running = false
	c.cancelTimers(run)
	reason := run.doomReason
	if reason == "" {
		reason = "aborted"
	}
	c.markAborted(run.res, reason)

	// Devices this routine actually modified, in reverse touch order.
	modified := make(map[device.ID]int) // device -> executed-command count
	var revOrder []device.ID
	for i := len(run.executed) - 1; i >= 0; i-- {
		d := run.executed[i].dev
		if modified[d] == 0 {
			revOrder = append(revOrder, d)
		}
		modified[d]++
	}

	for _, d := range revOrder {
		if !c.table.LastAcquirerWas(d, run.id) {
			// Another routine has since acquired the device (it obtained the
			// lock via a lease); its effect supersedes ours — no restore.
			continue
		}
		target := c.table.RollbackTarget(d, run.id)
		c.countRolledBack(run.res, modified[d])
		if target == device.StateUnknown || c.failed[d] {
			continue
		}
		if c.table.CurrentState(d) == target {
			continue
		}
		c.emit(Event{Time: c.env.Now(), Kind: EvRolledBack, Routine: run.id, Device: d, State: target})
		c.env.Exec(run.id, routine.Command{Device: d, Target: target}, c.opts.DefaultShort, func(error) {})
	}

	removed := c.table.RemoveRoutine(run.id)
	c.graph.Remove(order.RoutineNode(run.id))
	c.removeFromWaitQ(run)
	for _, d := range removed {
		c.onFree(d)
	}
	c.sched.onRoutineDone()
	c.checkInvariants("abort")
}

// enqueueWait adds a run to the scheduler wait queue (idempotent).
//
// Invariant: enqueueWait is only reachable from Submit (via the schedulers'
// onSubmit), never from the controller's internal callbacks, so it cannot
// run while a scheduler scan is compacting the queue. The scans rely on
// this: they rewrite c.waitQ in place and would silently drop an entry
// appended mid-scan.
func (c *evController) enqueueWait(run *evRun) {
	if run.queued {
		return
	}
	run.queued = true
	c.waitQ = append(c.waitQ, run)
}

// removeFromWaitQ dequeues a run by clearing its queued flag; the stale
// slice entry is compacted out by the next scheduler scan.
func (c *evController) removeFromWaitQ(run *evRun) {
	run.queued = false
}

func (c *evController) cancelTimers(run *evRun) {
	if run.ttlCancel != nil {
		run.ttlCancel()
		run.ttlCancel = nil
	}
	for d, cancel := range run.leaseTimers {
		cancel()
		delete(run.leaseTimers, d)
	}
}

// armPreLeaseRevocation starts the revocation timer for a pre-leased lock: if
// the destination routine has not finished with the device within the
// estimated span of its accesses to it (times the leniency factor) and
// another routine is blocked waiting for the device, the lease is revoked and
// the destination aborts (§4.1). When nobody is waiting the lease is simply
// extended for another interval — revocation exists to prevent starvation,
// not to punish slow routines that block no one.
func (c *evController) armPreLeaseRevocation(run *evRun, d device.ID, src routine.ID) {
	timeout := time.Duration(float64(run.r.SpanEstimate(d, c.opts.DefaultShort)) * c.opts.LeaseLeniency)
	if timeout <= 0 {
		timeout = c.opts.DefaultShort
	}
	var fire func()
	fire = func() {
		if run.done {
			return
		}
		st, ok := c.table.Status(d, run.id)
		if !ok || st == lineage.Released {
			return
		}
		if len(c.waiters[d]) == 0 {
			// No routine is blocked on the device: extend the lease.
			run.setLeaseTimer(d, c.env.After(timeout, fire))
			return
		}
		c.doom(run, fmt.Sprintf("pre-lease of %s from R%d revoked after %v", d, src, timeout))
		if !run.inflight {
			c.abortRun(run)
		}
	}
	run.setLeaseTimer(d, c.env.After(timeout, fire))
}

// --- failure / restart serialization (§3) -----------------------------------

func (c *evController) NotifyFailure(d device.ID) {
	n := c.failureDetected(d)
	c.graph.AddNode(n)

	for _, id := range c.submitted {
		run := c.runs[id]
		if run.done || !run.placed || !run.r.Touches(d) {
			continue // case 1: unrelated routines are unaffected
		}
		switch {
		case run.lastTouchDone[d]:
			// Case 3: the failure happened after this routine's last touch of
			// the device — serialize the failure event after the routine.
			_ = c.graph.AddEdge(order.RoutineNode(run.id), n)
		case run.firstTouched[d] || (run.inflight && run.inflightDev == d):
			// Case 4: the failure hit in the middle of this routine's
			// accesses; it cannot be serialized around the routine. Abort now
			// (EV aborts affected routines earlier rather than later, §7.4).
			c.doom(run, fmt.Sprintf("device %s failed during execution", d))
			if !run.inflight {
				c.abortRun(run)
			}
		default:
			// The routine has not touched the device yet. If the device
			// restarts before the routine's first command on it, the failure
			// and restart serialize before the routine (case 2); otherwise
			// that command will fail and the must/best-effort rules apply.
		}
	}
	c.checkInvariants("failure")
}

func (c *evController) NotifyRestart(d device.ID) {
	prevFail := order.FailureNode(d, c.failSeq[d]-1)
	n := c.restartDetected(d)
	c.graph.AddNode(n)
	if c.failSeq[d] > 0 {
		_ = c.graph.AddEdge(prevFail, n)
	}
	// Case 2: routines that have not yet touched the device serialize after
	// the failure/restart pair.
	for _, id := range c.submitted {
		run := c.runs[id]
		if run.done || !run.placed || !run.r.Touches(d) || run.firstTouched[d] {
			continue
		}
		_ = c.graph.AddEdge(n, order.RoutineNode(run.id))
	}
	// Devices come back in their pre-failure physical state; routines blocked
	// on commands need no special handling — their next Exec will succeed.
	c.checkInvariants("restart")
}

func (c *evController) checkInvariants(where string) {
	if !c.opts.CheckInvariants {
		return
	}
	if err := c.table.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("visibility: after %s: %v\n%s", where, err, c.table.String()))
	}
}
