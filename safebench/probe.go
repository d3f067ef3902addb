package main

import (
	"time"

	"safehome/internal/device"
	"safehome/internal/sim"
	"safehome/internal/visibility"
)

// probeSalt separates the probe's input stream from the load's.
const probeSalt = 0x5eed

// probe measures placement and export on a visibility controller of its
// own (the manager's model: EV with Timeline) that carries backlog long-hold
// routines, as one home of the workload does. Each iteration places one
// foreground routine, exports, then advances the simulated clock past the
// foreground hold so the open set stays the standing backlog.
func probe(w workload, seed int64, backlog, n int, tr *tracer, reqBase int64) (place, export dist) {
	s := sim.NewAtEpoch()
	reg := device.Plugs(w.plugs)
	fleet := device.NewFleet(reg)
	opts := visibility.DefaultOptions(visibility.EV)
	ctrl := visibility.New(visibility.NewSimEnv(s, fleet), fleet.Snapshot(), opts)

	pw := w
	pw.backlog = backlog
	g := newGen(pw, seed^probeSalt)
	devices := reg.IDs()
	if backlog > 0 {
		for _, r := range g.backlogRoutines(devices) {
			ctrl.Submit(r)
		}
	}
	s.RunUntil(s.Now().Add(time.Millisecond))
	ctrl.Export()

	step := 2 * hold
	for i := 0; i < n; i++ {
		r := g.request(devices, hold).r
		req := reqBase + int64(i)
		t0 := tr.now()
		ctrl.Submit(r)
		t1 := tr.now()
		ctrl.Export()
		t2 := tr.now()
		tr.add(kVisPlace, req, 0, t0, t1, false)
		tr.add(kVisExport, req, 0, t1, t2, false)
		tr.add(kProbe, req, 0, t0, t2, false)
		place = append(place, time.Duration(t1-t0))
		export = append(export, time.Duration(t2-t1))
		s.RunUntil(s.Now().Add(step))
	}
	return place, export
}
