package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"safehome/internal/device"
	"safehome/internal/hub"
	"safehome/internal/journal"
	"safehome/internal/manager"
	rt "safehome/internal/runtime"
	"safehome/internal/telemetry"
)

// system is one built manager with everything the run talks to.
type system struct {
	w      workload
	m      *manager.Manager
	dir    string // data dir; "" when memory-only
	fsyncs *atomic.Int64
	homes  []*rt.HomeRuntime

	srv       *http.Server
	serveDone chan error
	base      string

	backlogAcks []ack
}

func managerConfig(w workload, dir string, fsyncs *atomic.Int64) manager.Config {
	cfg := manager.Config{Clock: manager.ClockLive}
	if w.journal {
		cfg.DataDir = dir
		cfg.Journal = journal.Options{
			Mode:   journal.ModeGroup,
			OnSync: func(string, int64) { fsyncs.Add(1) },
		}
	}
	return cfg
}

// build is the timed set-up: manager, homes (and their journals), the HTTP
// listener when the workload serves over HTTP, and the standing backlog.
func build(w workload, in *inputs, scratch string, handler func(http.Handler) http.Handler) (*system, error) {
	s := &system{w: w, fsyncs: new(atomic.Int64)}
	if w.journal {
		dir, err := os.MkdirTemp(scratch, "data-")
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		s.dir = dir
	}
	s.m = manager.New(managerConfig(w, s.dir, s.fsyncs))
	devs := device.Plugs(w.plugs).All()
	for _, id := range in.ids {
		if err := s.m.AddHome(id, devs...); err != nil {
			s.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		h, err := s.m.Runtime(id)
		if err != nil {
			s.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		s.homes = append(s.homes, h)
	}
	if w.http {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		s.base = "http://" + ln.Addr().String()
		s.srv = &http.Server{Handler: handler(hub.ManagerHandler(s.m, w.plugs)), ReadHeaderTimeout: 10 * time.Second}
		s.serveDone = make(chan error, 1)
		go func() { s.serveDone <- s.srv.Serve(ln) }()
	}
	if err := s.loadBacklog(in); err != nil {
		s.teardown()
		return nil, err
	}
	return s, nil
}

// backlogSubmitters is the number of concurrent submitters per home while
// the backlog is built: enough to keep every batch of the home full, so the
// number of batches (and publishes) the build costs varies little.
const backlogSubmitters = 64

func (s *system) loadBacklog(in *inputs) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for h, rs := range in.backlog {
		for g := 0; g < backlogSubmitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var mine []ack
				for i := g; i < len(rs); i += backlogSubmitters {
					rid, err := s.m.Submit(in.ids[h], rs[i])
					if err != nil {
						mu.Lock()
						firstErr = errors.Join(firstErr, fmt.Errorf("setup: backlog submit: %w", err))
						mu.Unlock()
						return
					}
					mine = append(mine, ack{home: h, rid: rid})
				}
				mu.Lock()
				s.backlogAcks = append(s.backlogAcks, mine...)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	return firstErr
}

// stopServing shuts the listener and waits for Serve to return.
func (s *system) stopServing() {
	if s.srv == nil {
		return
	}
	_ = s.srv.Close()
	<-s.serveDone
	s.srv = nil
}

// teardown closes everything and deletes the data dir.
func (s *system) teardown() {
	s.stopServing()
	if s.m != nil {
		s.m.Close()
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

// counters reads the manager's /metrics counter totals.
func (s *system) counters() (map[string]float64, error) {
	fams, err := telemetry.Parse(string(s.m.Telemetry().Render()))
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return telemetry.CounterTotals(fams), nil
}

// accepted sums the homes' mailbox admissions (exact, unlike the cached
// /metrics gauge).
func (s *system) accepted() int64 {
	var n int64
	for _, h := range s.homes {
		n += h.Mailbox().Accepted
	}
	return n
}

// setupTimes builds the system w.setups times and keeps the last one; the
// others are torn down again. It returns every set-up's duration.
func setupTimes(w workload, in *inputs, scratch string, handler func(http.Handler) http.Handler) (*system, []float64, error) {
	var times []float64
	var s *system
	for i := 0; i < w.setups; i++ {
		if s != nil {
			s.teardown()
		}
		settle()
		t0 := time.Now()
		var err error
		s, err = build(w, in, scratch, handler)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, times, nil
}
