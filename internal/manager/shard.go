package manager

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"safehome/internal/device"
	rt "safehome/internal/runtime"
	"safehome/internal/stats"
)

// homeSlot is one home's stable identity on a shard: the routing map points
// at slots, and the slot points at the home's current runtime generation.
// When a panic poisons a runtime, the shard's supervisor swaps a freshly
// recovered runtime into the slot — callers holding the slot never see a
// dangling home, only ErrRestarting/ErrQuarantined while it is down.
type homeSlot struct {
	id      HomeID
	devices []device.Info
	rt      atomic.Pointer[rt.HomeRuntime]
	sup     *rt.Supervisor
	// lastPoison caches the home's persisted poison forensics (loaded from
	// poison.json on add, stored by the dying generation on poison, cleared
	// by a clean supervised restart) for Status reads.
	lastPoison atomic.Pointer[rt.PoisonRecord]

	// frozen holds the hibernation record while the home has no runtime
	// (rt == nil): the few hundred bytes the manager keeps resident per
	// hibernated home. Transition ordering keeps readers consistent —
	// freeze stores frozen before clearing rt; wake stores rt before
	// clearing frozen — so "rt first, frozen as fallback" always finds one.
	frozen atomic.Pointer[rt.FrozenHome]
	// wakeMu is the singleflight guard for freeze/wake transitions: exactly
	// one goroutine reanimates a frozen home; concurrent wakers (a submit, a
	// query, the trigger-deadline waker) block and share the result.
	wakeMu sync.Mutex
}

// health folds supervision state with the runtime's durability: degraded
// means a configured journal died and the home is serving memory-only. A
// slot with no runtime is hibernating.
func (slot *homeSlot) health() rt.HomeHealth {
	home := slot.rt.Load()
	if home == nil {
		return rt.HealthFrozen
	}
	return slot.sup.Health(home.JournalError() == nil)
}

// shard is a thin owner of a disjoint subset of the manager's homes: it
// holds the routing map from home ID to home slot, mirrors the home count
// for lock-free Status reads, and runs up to two goroutines — under
// ClockLive the pumper that advances its homes' simulators to the wall
// clock, and (unless supervision is disabled) the supervisor that restarts
// poisoned homes. All per-home state lives inside the runtimes; the shard's
// lock only guards the map itself.
type shard struct {
	m     *Manager
	index int

	mu     sync.RWMutex
	homes  map[HomeID]*homeSlot
	closed bool

	// live is the subset of homes with a runtime resident. The pumper and
	// the idle freezer scan only this map, so a frozen home costs zero
	// per-tick work — the whole point of hibernation at a million homes.
	live map[HomeID]*homeSlot

	// restartCh feeds poisoned slots to the shard's supervisor goroutine.
	restartCh chan *homeSlot

	// homeCount mirrors len(homes) for lock-free Status reads.
	homeCount stats.Counter
}

func newShard(m *Manager, index int) *shard {
	return &shard{
		m:         m,
		index:     index,
		homes:     make(map[HomeID]*homeSlot),
		live:      make(map[HomeID]*homeSlot),
		restartCh: make(chan *homeSlot, 64),
	}
}

// addHome builds a home runtime and registers it on this shard.
func (s *shard) addHome(id HomeID, devices []device.Info) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, exists := s.homes[id]; exists {
		return fmt.Errorf("%w: %q", ErrDuplicateHome, id)
	}
	slot := &homeSlot{
		id:      id,
		devices: append([]device.Info(nil), devices...),
		sup:     rt.NewSupervisor(s.m.cfg.Supervisor),
	}
	if dir := s.m.homeDir(id); dir != "" {
		// A poison record left behind by a previous process is forensics the
		// operator has not acted on yet; surface it until a clean restart.
		slot.lastPoison.Store(rt.LoadPoisonRecord(dir))
	}
	home, err := s.buildRuntime(slot)
	if err != nil {
		return err
	}
	slot.rt.Store(home)
	s.homes[id] = slot
	s.live[id] = slot
	s.homeCount.Inc()
	return nil
}

// addCold registers a hibernated home: just the slot and its frozen record,
// no runtime. First touch (or a due trigger deadline) wakes it. This is how
// a manager registers a million homes without holding a million loops.
func (s *shard) addCold(id HomeID, devices []device.Info, fr *rt.FrozenHome) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, exists := s.homes[id]; exists {
		return fmt.Errorf("%w: %q", ErrDuplicateHome, id)
	}
	slot := &homeSlot{
		id:      id,
		devices: append([]device.Info(nil), devices...),
		sup:     rt.NewSupervisor(s.m.cfg.Supervisor),
	}
	if dir := s.m.homeDir(id); dir != "" {
		slot.lastPoison.Store(rt.LoadPoisonRecord(dir))
	}
	slot.frozen.Store(fr)
	s.homes[id] = slot
	s.homeCount.Inc()
	return nil
}

// buildRuntime constructs one runtime generation for the slot. With a
// DataDir the new generation recovers from the home's journal; memory-only
// homes restart empty but alive.
func (s *shard) buildRuntime(slot *homeSlot) (*rt.HomeRuntime, error) {
	cfg := s.m.runtimeConfig(slot.id, s.index)
	if !s.m.cfg.Supervisor.Disable {
		cfg.OnPoison = func(err error) { s.notifyPoison(slot, err) }
	}
	return rt.NewSim(cfg, device.NewRegistry(slot.devices...))
}

// notifyPoison runs on the dying home's loop goroutine: record the poison
// and hand the slot to the supervisor without ever blocking the teardown.
func (s *shard) notifyPoison(slot *homeSlot, err error) {
	slot.sup.NotePoison(err)
	if home := slot.rt.Load(); home != nil {
		if rec := home.PoisonRecord(); rec != nil {
			slot.lastPoison.Store(rec)
		}
	}
	s.m.poisons.Add(1)
	select {
	case s.restartCh <- slot:
	default:
		go func() {
			select {
			case s.restartCh <- slot:
			case <-s.m.stop:
			}
		}()
	}
}

// runSupervisor restarts poisoned homes one at a time (per shard), applying
// the restart budget and backoff policy in rt.Supervisor.
func (s *shard) runSupervisor() {
	defer s.m.wg.Done()
	for {
		select {
		case <-s.m.stop:
			return
		case slot := <-s.restartCh:
			s.superviseRestart(slot)
		}
	}
}

// superviseRestart swaps a fresh runtime generation into a poisoned slot.
func (s *shard) superviseRestart(slot *homeSlot) {
	s.m.restartingNow.Add(1)
	defer s.m.restartingNow.Add(-1)
	// Join the dead loop first. The poison teardown already closed the
	// mailbox and released the journal's file lock, so the data directory is
	// free for the next generation.
	if home := slot.rt.Load(); home != nil {
		home.Close()
	}
	ok := slot.sup.Restart(s.m.stop, func() error {
		home, err := s.buildRuntime(slot)
		if err != nil {
			return err
		}
		// The rebuild came back clean: retire the forensics before the new
		// generation is published, so no HomeStatus poll that sees the
		// restarted, healthy home can still read the old poison record (in
		// the cache or the persisted poison.json). Clearing after the
		// publish would also risk wiping a poison of the new generation.
		if dir := s.m.homeDir(slot.id); dir != "" {
			rt.ClearPoisonRecord(dir)
		}
		slot.lastPoison.Store(nil)
		slot.rt.Store(home)
		return nil
	})
	if ok {
		s.m.restarts.Add(1)
	} else if slot.sup.Quarantined() {
		s.m.quarantined.Add(1)
	}
}

// setLive moves the slot in or out of the pumper/freezer scan set. It
// refuses (returning false) once the shard is closed, so a wake racing
// shutdown cannot resurrect a runtime closeAll will never see.
func (s *shard) setLive(slot *homeSlot, live bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if live {
		s.live[slot.id] = slot
	} else {
		delete(s.live, slot.id)
	}
	return true
}

// wake reanimates a hibernated home: remove the frozen marker, rebuild the
// runtime from checkpoint + journal tail, publish it. wakeMu singleflights
// concurrent wakers and serializes against an in-flight freeze — a waker
// arriving mid-freeze blocks, then finds rt nil and reanimates. The marker
// is removed BEFORE the build so a crash mid-wake leaves journal state with
// no marker: an ordinary live recovery next boot, never a stale frozen
// claim over a home that already reanimated.
func (s *shard) wake(slot *homeSlot) (*rt.HomeRuntime, error) {
	wakeStart := time.Now()
	slot.wakeMu.Lock()
	defer slot.wakeMu.Unlock()
	if home := slot.rt.Load(); home != nil {
		return home, nil // another waker (or a failed freeze) got here first
	}
	if dir := s.m.homeDir(slot.id); dir != "" {
		if err := rt.RemoveFrozenRecord(dir); err != nil {
			return nil, err
		}
	}
	home, err := s.buildRuntime(slot)
	if err != nil {
		return nil, err
	}
	if !s.setLive(slot, true) {
		home.Close()
		return nil, ErrClosed
	}
	slot.rt.Store(home)
	slot.frozen.Store(nil)
	s.m.tel.wakes.Inc()
	s.m.tel.wakeSeconds.Observe(time.Since(wakeStart).Seconds())
	return home, nil
}

// freeze hibernates one home: final checkpoint via the graceful Close,
// durable frozen marker, then collapse the slot to the FrozenHome record.
// Only a healthy home freezes — a degraded journal cannot take the final
// checkpoint, and a poisoned home belongs to the supervisor. On a freeze
// error after the Close (which is irrevocable) the slot is rebuilt from
// disk so the home keeps serving.
func (s *shard) freeze(slot *homeSlot) error {
	slot.wakeMu.Lock()
	defer slot.wakeMu.Unlock()
	home := slot.rt.Load()
	if home == nil {
		return nil // already frozen
	}
	if h := slot.sup.Health(home.JournalError() == nil); h != rt.HealthOK {
		return fmt.Errorf("manager: home %q is %s, not freezing", slot.id, h)
	}
	fr, err := home.Freeze()
	if err == nil {
		err = rt.WriteFrozenRecord(fr)
	}
	if err != nil {
		if !slot.sup.Serving() {
			// Poisoned mid-freeze: the dying loop already queued the slot on
			// restartCh; the supervisor owns the rebuild.
			return err
		}
		rebuilt, rerr := s.buildRuntime(slot)
		if rerr != nil {
			return fmt.Errorf("manager: home %q failed to freeze (%v) and to rebuild: %w", slot.id, err, rerr)
		}
		slot.rt.Store(rebuilt)
		return err
	}
	slot.frozen.Store(fr)
	s.setLive(slot, false)
	slot.rt.Store(nil)
	s.m.tel.freezes.Inc()
	if !fr.NextFire.IsZero() {
		s.m.scheduleWake(slot.id, fr.NextFire)
	}
	return nil
}

// slot returns the home's slot, if the shard owns it.
func (s *shard) slot(id HomeID) (*homeSlot, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	slot, ok := s.homes[id]
	return slot, ok
}

// has reports whether the shard currently owns the home.
func (s *shard) has(id HomeID) bool {
	_, ok := s.slot(id)
	return ok
}

// snapshot returns a point-in-time copy of the routing map.
func (s *shard) snapshot() map[HomeID]*homeSlot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[HomeID]*homeSlot, len(s.homes))
	for id, slot := range s.homes {
		out[id] = slot
	}
	return out
}

// runPump is the shard's live-clock loop: on every tick it advances the
// simulators of exactly the live homes with an event due at or before now —
// idle homes are skipped entirely (each runtime publishes its next deadline,
// and PumpIfDue also bounds in-flight pumps to one per home), and frozen
// homes are not even visited: the scan walks the live map, not the fleet.
func (s *shard) runPump() {
	defer s.m.wg.Done()
	ticker := time.NewTicker(s.m.cfg.PumpInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.m.stop:
			return
		case <-ticker.C:
			now := time.Now()
			s.mu.RLock()
			for _, slot := range s.live {
				if home := slot.rt.Load(); home != nil {
					home.PumpIfDue(now)
				}
			}
			s.mu.RUnlock()
		}
	}
}

// liveSnapshot returns a point-in-time copy of the live (non-frozen) slots,
// for the idle freezer's scan.
func (s *shard) liveSnapshot() []*homeSlot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*homeSlot, 0, len(s.live))
	for _, slot := range s.live {
		out = append(out, slot)
	}
	return out
}

// closeAll closes every home runtime on this shard (graceful drain) and
// stops accepting new homes.
func (s *shard) closeAll() {
	s.mu.Lock()
	s.closed = true
	slots := make([]*homeSlot, 0, len(s.homes))
	for _, slot := range s.homes {
		slots = append(slots, slot)
	}
	s.mu.Unlock()
	for _, slot := range slots {
		// Frozen homes have no runtime — their final checkpoint already
		// landed; closing the manager costs them nothing.
		if home := slot.rt.Load(); home != nil {
			home.Close()
		}
	}
}
