package main

import (
	"fmt"
	"io/fs"
	"maps"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"safehome/internal/hub"
	"safehome/internal/routine"
)

// drainTimeout bounds the wait for short routines to finish after the load
// stops; they hold devices for tens of milliseconds, so this only trips on
// a stuck scheduler.
const drainTimeout = 30 * time.Second

// The closed loop runs near the program's capacity and every routine it
// submits stays in memory, so it gets the smallest share of the run.
func untracedPhases(seconds float64) phases {
	return phases{warm: secs(0.25 * seconds), open: secs(0.6 * seconds), closed: secs(0.15 * seconds)}
}

func tracedPhases(seconds float64) phases {
	return phases{warm: secs(0.1 * seconds), open: secs(0.35 * seconds), traced: secs(0.55 * seconds)}
}

// settle makes each set-up start from the same state: dirty pages flushed,
// so write-back left by whatever ran before (an earlier set-up's deleted
// data dir, a build) does not slow the set-up's file system work, and a
// fresh heap, so where the collector's cycles fall does not depend on what
// the previous set-up left behind.
func settle() {
	syscall.Sync()
	runtime.GC()
}

func identity(h http.Handler) http.Handler { return h }

// primaryDoor is the workload's untraced way in.
func primaryDoor(s *system, in *inputs, tr *tracer) door {
	if s.w.http {
		return newHTTPDoor(s.base, in.postPaths, s.w.workers, nil, tr)
	}
	return &directDoor{m: s.m, ids: in.ids, tr: tr}
}

func closeDoor(d door) {
	if h, ok := d.(*httpDoor); ok {
		h.close()
	}
}

func constDoor(d door) func(int) door { return func(int) door { return d } }

func runUntraced(o options) (*result, error) {
	w := o.workload
	ph := untracedPhases(o.seconds)
	in := generate(w, o.seed, ph)
	res := &result{env: environment(o, ph)}

	s, setups, err := setupTimes(w, in, o.scratch, identity)
	if err != nil {
		return nil, err
	}
	res.add("setup_s", median(setups), "s", len(setups))
	res.notes = append(res.notes, fmt.Sprintf("set-ups (s): %.4f", setups))

	d := primaryDoor(s, in, nil)
	defer closeDoor(d)
	ring := &ackRing{}
	warm := openLoop(in.warm, w.workers, ring, 0, constDoor(d), nil)

	var peak uint64
	cpuStart := cpuTime()
	heap := startSampler(20*time.Millisecond, func() { peak = max(peak, readGoStats().liveHeap) })
	open := openLoop(in.open, w.workers, ring, 0, constDoor(d), nil)
	heap.stop()
	cpuOpen := cpuTime() - cpuStart
	// Results are retained, so the live set only grows during the phase: a
	// full collection at its end reads the peak exactly, where the sampled
	// post-GC values lag it by however long ago the last cycle ran.
	runtime.GC()
	peak = max(peak, readGoStats().liveHeap)
	cpuClosedStart := cpuTime()
	closed := closedLoop(in.closed, ph.closed, d)
	cpuClosed := cpuTime() - cpuClosedStart
	cpuUsed := cpuTime() - cpuStart

	ops := int64(len(open.acks)) + open.reads + int64(len(closed.acks))
	res.addWindows("ack_p50_ms", windowedQuantile(open.ack, open.ackAt, ph.open, 0.50), "ms", len(open.ack))
	res.addWindows("ack_p99_ms", windowedQuantile(open.ack, open.ackAt, ph.open, 0.99), "ms", len(open.ack))
	res.addWindows("read_p50_ms", windowedQuantile(open.read, open.readAt, ph.open, 0.50), "ms", len(open.read))
	res.addWindows("read_p99_ms", windowedQuantile(open.read, open.readAt, ph.open, 0.99), "ms", len(open.read))
	res.addWindows("capacity_ops_s", windowedRate(closed.doneAt, ph.closed), "ops/s", len(closed.acks))
	res.add("cpu_us_per_op", us(cpuUsed)/float64(max(ops, 1)), "us", int(ops))
	// The open-loop figure is the cost at the workload's fixed offered rate;
	// of the three it moves least with steal time, so it is the one gated.
	openOps := int64(len(open.acks)) + open.reads
	res.add("cpu_open_us_per_op", us(cpuOpen)/float64(max(openOps, 1)), "us", int(openOps))
	res.add("cpu_closed_us_per_op", us(cpuClosed)/float64(max(len(closed.acks), 1)), "us", len(closed.acks))
	res.add("heap_peak_mb", float64(peak)/(1<<20), "MB", 0)
	res.add("gen.late_ms.p50", ms(open.late.quantile(0.50)), "ms", len(open.late))
	res.add("gen.late_ms.p99", ms(open.late.quantile(0.99)), "ms", len(open.late))

	all := &phaseResult{}
	all.merge(warm)
	all.merge(open)
	all.merge(closed)
	finish(res, s, in, all, func() {
		var lat dist
		var sum time.Duration
		for _, a := range open.acks {
			if a.req.bg {
				continue
			}
			if r, ok, _ := s.m.Result(in.ids[a.home], a.rid); ok && r.Status.Finished() {
				lat = append(lat, r.Finished.Sub(r.Submitted))
				sum += r.Finished.Sub(r.Submitted)
			}
		}
		res.addQ("routine_p50_ms", lat, 0.50, "ms")
		res.addQ("routine_p99_ms", lat, 0.99, "ms")
		res.add("routine_mean_ms", ms(sum)/float64(max(len(lat), 1)), "ms", len(lat))
	})
	return res, nil
}

// finish waits for the load to drain, runs every output check, closes the
// manager and deletes its data. measure runs after the drain, before close.
func finish(res *result, s *system, in *inputs, all *phaseResult, measure func()) {
	c := &res.checks
	acks := append(all.acks, s.backlogAcks...)
	t0 := time.Now()
	checkAcks(c, s, in, acks, drainTimeout)
	measure()
	if all.errs > 0 {
		c.fail("%d operations failed; first: %v", all.errs, all.firstErr)
	}
	s.stopServing()
	s.m.Close()
	checkCongruence(c, s.m, in, s.w.plugs)
	if s.dir != "" {
		want := statuses(s, in, acks)
		// Drop the closed manager first, so the recovered one does not hold
		// a second copy of every routine in memory.
		s.m, s.homes = nil, nil
		checkRecovery(c, s.w, s.dir, in, want)
	}
	s.teardown()
	res.notes = append(res.notes, fmt.Sprintf("checks took %.2fs after the load", time.Since(t0).Seconds()))

	attempted := int64(len(all.acks)) + all.reads + all.shed + all.errs
	res.attempted = attempted
	res.failed = all.shed + all.errs + c.count()
	res.add("failed_frac", float64(res.failed)/float64(max(attempted, 1)), "ratio", 0)
}

// probeIterations is how many placements each visibility probe times.
const probeIterations = 2000

func runTraced(o options) (*result, error) {
	w := o.workload
	ph := tracedPhases(o.seconds)
	in := generate(w, o.seed, ph)
	res := &result{env: environment(o, ph)}
	tr := newTracer()

	settle()
	s, err := build(w, in, o.scratch, func(h http.Handler) http.Handler { return traceMiddleware(h, tr) })
	if err != nil {
		return nil, err
	}
	plain := primaryDoor(s, in, nil)
	defer closeDoor(plain)
	ring := &ackRing{}
	warm := openLoop(in.warm, w.workers, ring, 0, constDoor(plain), nil)
	base := openLoop(in.open, w.workers, ring, 0, constDoor(plain), nil)

	// The traced phase sends three ops in four through the workload's own
	// door and the fourth through the other one, so every layer is timed on
	// every workload: in-process workloads reach the hub in memory, and
	// http-mixed reaches the manager directly.
	traced := primaryDoor(s, in, tr)
	defer closeDoor(traced)
	var alt door
	if w.http {
		alt = &directDoor{m: s.m, ids: in.ids, tr: tr}
	} else {
		alt = newHTTPDoor("", in.postPaths, 0, traceMiddleware(hub.ManagerHandler(s.m, w.plugs), tr), tr)
	}
	doorFor := func(i int) door {
		if i%4 == 3 {
			return alt
		}
		return traced
	}

	c0, err := s.counters()
	if err != nil {
		s.teardown()
		return nil, err
	}
	acc0, fs0, gs0 := s.accepted(), s.fsyncs.Load(), readGoStats()
	var mu sync.Mutex
	var depths []float64
	openMax := 0
	smp := startSampler(5*time.Millisecond, func() {
		depth, open := 0, 0
		for _, h := range s.homes {
			depth = max(depth, h.Mailbox().Depth)
			open = max(open, h.Counts().Pending) // Pending counts every submitted, unfinished routine
		}
		mu.Lock()
		depths = append(depths, float64(depth))
		openMax = max(openMax, open)
		mu.Unlock()
	})
	tres := openLoop(in.traced, w.workers, ring, 0, doorFor, tr)
	smp.stop()
	c1, err := s.counters()
	if err != nil {
		s.teardown()
		return nil, err
	}
	acc1, fs1, gs1 := s.accepted(), s.fsyncs.Load(), readGoStats()

	writes := int64(len(tres.acks))
	ops := writes + tres.reads
	// Overhead compares like with like: the traced ops that went through the
	// workload's own door against the untraced phase before.
	var own dist
	for k, i := range tres.ackOp {
		if doorFor(i) == traced {
			own = append(own, tres.ack[k])
		}
	}
	res.add("trace.overhead_ms", ms(own.quantile(0.5))-ms(base.ack.quantile(0.5)), "ms", len(own))

	post := func(sp span) bool { return sp.Post }
	get := func(sp span) bool { return !sp.Post }
	res.addQ("hub.serve_write_us.p50", tr.durations(kHubServe, post), 0.50, "us")
	res.addQ("hub.serve_write_us.p99", tr.durations(kHubServe, post), 0.99, "us")
	res.addQ("hub.serve_read_us.p50", tr.durations(kHubServe, get), 0.50, "us")
	res.addQ("hub.serve_read_us.p99", tr.durations(kHubServe, get), 0.99, "us")
	if w.http {
		res.addQ("hub.transport_us.p50", transport(tr), 0.50, "us")
	} else {
		res.addNA("hub.transport_us.p50", "us")
	}

	var parse dist
	for _, op := range in.traced {
		if op.req != nil {
			t0 := time.Now()
			if _, err := routine.ParseSpec(op.req.body); err != nil {
				res.checks.fail("parse of a generated body: %v", err)
			}
			parse = append(parse, time.Since(t0))
		}
	}
	res.addQ("routine.parse_us.p50", parse, 0.50, "us")

	res.addQ("manager.submit_us.p50", tr.durations(kManagerSubmit, nil), 0.50, "us")
	res.addQ("manager.submit_us.p99", tr.durations(kManagerSubmit, nil), 0.99, "us")
	res.addQ("manager.lookup_us.p50", tr.durations(kManagerLookup, nil), 0.50, "us")
	res.add("manager.shed_frac", float64(tres.shed)/float64(max(ops+tres.shed+tres.errs, 1)), "ratio", 0)
	res.addQ("runtime.submit_us.p50", tr.durations(kRuntimeSubmit, nil), 0.50, "us")
	res.addQ("runtime.submit_us.p99", tr.durations(kRuntimeSubmit, nil), 0.99, "us")
	res.addQ("runtime.read_us.p50", tr.durations(kRuntimeRead, nil), 0.50, "us")
	res.add("runtime.mailbox_depth.p99", nearestRank(depths, 0.99), "count", len(depths))
	pubs := c1["safehome_snapshot_publishes_total"] - c0["safehome_snapshot_publishes_total"]
	res.add("runtime.ops_per_publish", float64(acc1-acc0)/max(pubs, 1), "count", 0)
	res.add("visibility.open_routines.max", float64(openMax), "count", len(depths))

	fsyncs := fs1 - fs0
	if w.journal {
		if got := c1["safehome_journal_fsyncs_total"] - c0["safehome_journal_fsyncs_total"]; got != float64(fsyncs) {
			res.notes = append(res.notes, fmt.Sprintf("journal fsync cross-check: OnSync counted %d, /metrics %g", fsyncs, got))
		}
		res.add("journal.ops_per_fsync", float64(writes)/float64(max(fsyncs, 1)), "count", int(fsyncs))
	} else {
		res.addNA("journal.ops_per_fsync", "count")
	}
	appended := c1["safehome_journal_appended_bytes_total"] - c0["safehome_journal_appended_bytes_total"]
	res.add("journal.bytes_per_op", appended/float64(max(writes, 1)), "B", 0)
	res.add("journal.fsyncs_per_op", float64(fsyncs)/float64(max(writes, 1)), "1/op", 0)
	if w.journal {
		allWrites := len(warm.acks) + len(base.acks) + len(tres.acks) + len(s.backlogAcks)
		res.add("journal.disk_bytes_per_op", float64(dirSize(s.dir))/float64(max(allWrites, 1)), "B", 0)
	} else {
		res.addNA("journal.disk_bytes_per_op", "B")
	}
	res.add("go.gc_cpu_frac", (gs1.gcCPU-gs0.gcCPU)/max(gs1.totalCPU-gs0.totalCPU, 1e-9), "ratio", 0)
	res.add("go.alloc_bytes_per_op", float64(gs1.allocBytes-gs0.allocBytes)/float64(max(ops, 1)), "B", int(ops))
	res.addQ("gen.late_ms.p99", tres.late, 0.99, "ms")
	res.add("gen.late_ms.max", ms(tres.late.max()), "ms", len(tres.late))

	place, export := probe(w, o.seed, w.backlog, probeIterations, tr, 1<<40)
	res.addQ("visibility.place_us.p50", place, 0.50, "us")
	res.addQ("visibility.place_us.p99", place, 0.99, "us")
	res.addQ("visibility.export_us.p50", export, 0.50, "us")
	if w.backlog > 0 {
		_, export0 := probe(w, o.seed, 0, probeIterations, newTracer(), 0)
		res.addQ("visibility.export_us.p50.no_backlog", export0, 0.50, "us")
		res.add("visibility.export_backlog_ratio", us(export.quantile(0.5))/max(us(export0.quantile(0.5)), 1e-9), "x", 0)
	}

	self := tr.selfTimes()
	for _, layer := range slices.Sorted(maps.Keys(self)) {
		res.add("self_ms."+layer, ms(self[layer]), "ms", 0)
	}

	all := &phaseResult{}
	all.merge(warm)
	all.merge(base)
	all.merge(tres)
	finish(res, s, in, all, func() {})
	path := filepath.Join(o.scratch, "trace-"+w.name+"-"+strconv.FormatInt(o.seed, 10)+".jsonl")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, "spans written to "+path)
	return res, nil
}

// transport is, per HTTP request, the client's round trip minus the hub's
// ServeHTTP time: net/http, loopback and client cost outside the program.
func transport(tr *tracer) dist {
	serve := map[int64]time.Duration{}
	for _, sp := range tr.spans {
		if sp.Kind == kHubServe {
			serve[sp.Req] = sp.dur()
		}
	}
	var out dist
	for _, sp := range tr.spans {
		if sp.Kind == kClient {
			if d, ok := serve[sp.Req]; ok {
				out = append(out, sp.dur()-d)
			}
		}
	}
	return out
}

func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
