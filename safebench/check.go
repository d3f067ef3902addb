package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"safehome/internal/congruence"
	"safehome/internal/device"
	"safehome/internal/manager"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

// checks collects output-check failures; any failure fails the run.
type checks struct {
	failures []string
	passed   []string
}

func (c *checks) fail(format string, a ...any) {
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, a...))
	} else if len(c.failures) == 20 {
		c.failures = append(c.failures, "...")
	}
}

func (c *checks) count() int64 { return int64(len(c.failures)) }

type homeRID struct {
	home int
	rid  routine.ID
}

// checkAcks verifies that every acknowledged routine ID is unique within its
// home and has a Result, then waits for every foreground routine that does
// not wait behind the backlog to become terminal.
func checkAcks(c *checks, s *system, in *inputs, acks []ack, drain time.Duration) {
	seen := make(map[homeRID]bool, len(acks))
	var waiting []ack
	for _, a := range acks {
		k := homeRID{a.home, a.rid}
		if seen[k] {
			c.fail("home %s: routine ID %d acknowledged twice", in.ids[a.home], a.rid)
			continue
		}
		seen[k] = true
		if _, ok, err := s.m.Result(in.ids[a.home], a.rid); err != nil || !ok {
			c.fail("home %s: acknowledged routine %d has no result (%v)", in.ids[a.home], a.rid, err)
			continue
		}
		if a.req != nil && !a.req.bg {
			waiting = append(waiting, a)
		}
	}
	c.passed = append(c.passed, fmt.Sprintf("ids-unique-and-present(%d)", len(acks)))
	deadline := time.Now().Add(drain)
	for len(waiting) > 0 {
		rest := waiting[:0]
		for _, a := range waiting {
			res, _, _ := s.m.Result(in.ids[a.home], a.rid)
			if !res.Status.Finished() {
				rest = append(rest, a)
			}
		}
		waiting = rest
		if len(waiting) == 0 {
			break
		}
		if time.Now().After(deadline) {
			c.fail("%d short routines still open %v after the load stopped (first: home %s routine %d)",
				len(waiting), drain, in.ids[waiting[0].home], waiting[0].rid)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.passed = append(c.passed, "short-routines-terminal")
}

// checkCongruence runs the paper's serial-equivalence oracle on every home
// of a closed manager: the devices' end state must be the end state of some
// serial order of the committed routines.
func checkCongruence(c *checks, m *manager.Manager, in *inputs, plugs int) {
	initial := map[device.ID]device.State{}
	for _, d := range device.Plugs(plugs).All() {
		initial[d.ID] = d.Initial
	}
	routines := 0
	for _, id := range in.ids {
		results, err := m.Results(id)
		if err != nil {
			c.fail("home %s: results: %v", id, err)
			continue
		}
		final, err := m.DeviceStates(id)
		if err != nil {
			c.fail("home %s: device states: %v", id, err)
			continue
		}
		if bad := congruent(initial, results, final); bad != "" {
			c.fail("home %s: %s", id, bad)
		}
		routines += len(results)
	}
	c.passed = append(c.passed, fmt.Sprintf("congruence(%d homes, %d routines)", len(in.ids), routines))
}

// congruent returns "" when final is serially equivalent to the committed
// results, else why not. Every result must be terminal: the manager is
// closed, so nothing may still be open.
//
// congruence.Check is quadratic in the routines it is given, so it runs once
// per group of routines linked by shared devices. That is exact: groups
// touch disjoint devices, so serial orders of the groups interleave freely,
// and a home's end state is serially equivalent iff each group's is.
func congruent(initial map[device.ID]device.State, results []visibility.Result, final map[device.ID]device.State) string {
	parent := map[device.ID]device.ID{}
	var find func(d device.ID) device.ID
	find = func(d device.ID) device.ID {
		p, ok := parent[d]
		if !ok || p == d {
			parent[d] = d
			return d
		}
		root := find(p)
		parent[d] = root
		return root
	}
	var committed []congruence.Writes
	for _, r := range results {
		switch r.Status {
		case visibility.StatusCommitted:
			w := congruence.FromRoutine(r.Routine)
			committed = append(committed, w)
			var first device.ID
			for d := range w.Final {
				if first == "" {
					first = find(d)
				} else {
					parent[find(d)] = first
				}
			}
		case visibility.StatusAborted:
		default:
			return fmt.Sprintf("routine %d is %v after close", r.ID, r.Status)
		}
	}
	groups := map[device.ID][]congruence.Writes{}
	for _, w := range committed {
		for d := range w.Final {
			groups[find(d)] = append(groups[find(d)], w)
			break
		}
	}
	groupFinal := map[device.ID]map[device.ID]device.State{}
	for d, st := range final {
		root := find(d)
		if groupFinal[root] == nil {
			groupFinal[root] = map[device.ID]device.State{}
		}
		groupFinal[root][d] = st
	}
	for root, gf := range groupFinal {
		if res := congruence.Check(initial, groups[root], gf); !res.Congruent {
			return fmt.Sprintf("end state not serially equivalent (devices %v)", res.BadDevices)
		}
	}
	return ""
}

// statuses records, for every acknowledged routine, its status in the
// closed manager.
func statuses(s *system, in *inputs, acks []ack) map[homeRID]visibility.RoutineStatus {
	want := make(map[homeRID]visibility.RoutineStatus, len(acks))
	for _, a := range acks {
		res, _, _ := s.m.Result(in.ids[a.home], a.rid)
		want[homeRID{a.home, a.rid}] = res.Status
	}
	return want
}

// checkRecovery reopens a closed journaled manager's data dir and checks
// that every acknowledged routine came back with the status it had at
// close: acknowledged implies durable.
func checkRecovery(c *checks, w workload, dir string, in *inputs, want map[homeRID]visibility.RoutineStatus) {
	m2 := manager.New(managerConfig(w, dir, new(atomic.Int64)))
	defer m2.Close()
	if _, err := m2.RecoverHomes(); err != nil {
		c.fail("recover: %v", err)
		return
	}
	for k, st := range want {
		res, ok, err := m2.Result(in.ids[k.home], k.rid)
		switch {
		case err != nil || !ok:
			c.fail("home %s: acknowledged routine %d lost by recovery (%v)", in.ids[k.home], k.rid, err)
		case res.Status != st:
			c.fail("home %s: routine %d recovered %v, was %v", in.ids[k.home], k.rid, res.Status, st)
		}
	}
	c.passed = append(c.passed, fmt.Sprintf("recovery(%d routines)", len(want)))
}
