package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// Span kinds. A span's ID is req*numKinds+kind, and its parent is fixed by
// its kind, so spans recorded on different goroutines (the HTTP client and
// the server-side middleware) link up without passing IDs around.
const (
	kClient        = iota // one scheduled request, as the client sees it
	kHubServe             // hub ServeHTTP, timed by bench-side middleware
	kManagerSubmit        // Manager.Runtime then HomeRuntime.Submit
	kManagerRead          // Manager.Runtime then HomeRuntime.Result
	kManagerLookup        // Manager.Runtime
	kRuntimeSubmit        // HomeRuntime.Submit
	kRuntimeRead          // HomeRuntime.Result
	kProbe                // one visibility probe iteration
	kVisPlace             // visibility Controller.Submit on the probe
	kVisExport            // visibility Controller.Export on the probe
	numKinds
)

var kindNames = [numKinds]string{
	"client", "hub.serve", "manager.submit", "manager.read", "manager.lookup",
	"runtime.submit", "runtime.read", "probe", "visibility.place", "visibility.export",
}

// kindLayer maps a span kind to the layer its self time is charged to.
var kindLayer = [numKinds]string{
	"client", "hub", "manager", "manager", "manager",
	"runtime", "runtime", "probe", "visibility", "visibility",
}

var kindParent = [numKinds]int{
	-1, kClient, kClient, kClient, -2, // lookup's parent is submit or read
	kManagerSubmit, kManagerRead, -1, kProbe, kProbe,
}

type span struct {
	Kind   int    `json:"-"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`   // -1: root
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Post   bool   `json:"post,omitempty"` // hub.serve: a POST (else a GET)
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, after the run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a span; parentKind is only consulted for manager.lookup.
func (t *tracer) add(kind int, req int64, parentKind int, start, end int64, post bool) {
	p := kindParent[kind]
	if p == -2 {
		p = parentKind
	}
	parent := int64(-1)
	if p >= 0 {
		parent = req*numKinds + int64(p)
	}
	s := span{Kind: kind, Name: kindNames[kind], Req: req, ID: req*numKinds + int64(kind), Parent: parent, Start: start, End: end, Post: post}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations of every span of kind that passes keep.
func (t *tracer) durations(kind int, keep func(span) bool) dist {
	var d dist
	for _, s := range t.spans {
		if s.Kind == kind && (keep == nil || keep(s)) {
			d = append(d, s.dur())
		}
	}
	return d
}

// selfTimes charges each span's duration minus the part of its interval its
// children cover to the span's layer, and returns the per-layer totals.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[kindLayer[s.Kind]] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	kids = slices.Clone(kids)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return time.Duration(total)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
