package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func names(ms []specMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

// TestSpecMatchesProgram pins BENCHMARK.json to the program's workloads and
// metric lists.
func TestSpecMatchesProgram(t *testing.T) {
	s := loadSpec(t)
	var ws []string
	for _, w := range s.Workloads {
		ws = append(ws, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(ws, have) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", ws, have)
	}
	if got := names(s.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", got, endToEnd)
	}
	if got := names(s.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", got, perLayer)
	}
}

// The report lines every run prints, by name, whatever BENCHMARK.json keeps
// in its final JSON line.
var (
	reportedEndToEnd = []string{
		"setup_s", "ack_p50_ms", "ack_p99_ms", "read_p50_ms", "read_p99_ms",
		"routine_p50_ms", "routine_p99_ms", "routine_mean_ms", "capacity_ops_s",
		"failed_frac", "cpu_us_per_op", "cpu_open_us_per_op", "cpu_closed_us_per_op", "heap_peak_mb",
	}
	reportedPerLayer = []string{
		"hub.serve_write_us.p50", "hub.serve_write_us.p99", "hub.serve_read_us.p50", "hub.serve_read_us.p99",
		"hub.transport_us.p50", "routine.parse_us.p50", "manager.submit_us.p50", "manager.submit_us.p99",
		"manager.lookup_us.p50", "manager.shed_frac", "runtime.submit_us.p50", "runtime.submit_us.p99",
		"runtime.read_us.p50", "runtime.mailbox_depth.p99", "runtime.ops_per_publish",
		"visibility.open_routines.max", "visibility.place_us.p50", "visibility.place_us.p99",
		"visibility.export_us.p50", "journal.ops_per_fsync", "journal.bytes_per_op",
		"journal.disk_bytes_per_op", "go.gc_cpu_frac", "go.alloc_bytes_per_op",
		"gen.late_ms.p99", "gen.late_ms.max", "trace.overhead_ms",
	}
)

// TestShortRuns runs every workload briefly in both modes and checks that
// each metric BENCHMARK.json names is in the final JSON line with its unit,
// and that each metric is printed in the report.
func TestShortRuns(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "7", "--seconds", "1", "--trace", trace, "--scratch", t.TempDir()}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var line struct {
					Correct   bool  `json:"correct"`
					Attempted int64 `json:"attempted"`
					Failed    int64 `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
				}
				want, report := spec.EndToEnd, reportedEndToEnd
				if trace == "1" {
					want, report = spec.PerLayer, reportedPerLayer
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("JSON carries %d metrics, BENCHMARK.json names %d", len(line.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := line.Metrics[m.Name]
					if !ok || got.Value == nil || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
				text := out.String()
				for _, name := range report {
					if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` +\S+ \S+`).MatchString(text) {
						t.Errorf("report has no line for %s", name)
					}
				}
			})
		}
	}
}

// TestCongruenceCheckRejects proves the end-state oracle can fail: a final
// state no serial order of the committed routines produces, and a routine
// left open after close, are both rejected.
func TestCongruenceCheckRejects(t *testing.T) {
	initial := map[device.ID]device.State{"plug-0": device.Off, "plug-1": device.Off}
	on := routine.New("on", routine.Command{Device: "plug-0", Target: device.On}, routine.Command{Device: "plug-1", Target: device.On})
	off := routine.New("off", routine.Command{Device: "plug-0", Target: device.Off}, routine.Command{Device: "plug-1", Target: device.Off})
	on.ID, off.ID = 1, 2
	results := []visibility.Result{
		{ID: 1, Routine: on, Status: visibility.StatusCommitted},
		{ID: 2, Routine: off, Status: visibility.StatusCommitted},
	}
	good := map[device.ID]device.State{"plug-0": device.Off, "plug-1": device.Off}
	if why := congruent(initial, results, good); why != "" {
		t.Fatalf("serial end state rejected: %s", why)
	}
	// Each routine won one device: no serial order ends like this.
	mixed := map[device.ID]device.State{"plug-0": device.On, "plug-1": device.Off}
	if why := congruent(initial, results, mixed); why == "" {
		t.Error("fabricated end state accepted")
	}
	results[1].Status = visibility.StatusRunning
	if why := congruent(initial, results, good); why == "" {
		t.Error("routine still running after close accepted")
	}
}

// TestAckCheckRejectsUnknownRoutine proves the acknowledgement check fails
// on an acknowledged ID the program has no result for, and on a duplicate.
func TestAckCheckRejectsUnknownRoutine(t *testing.T) {
	w, _ := findWorkload("backlog-live")
	w.homes, w.backlog = 1, 0
	in := generate(w, 1, phases{})
	s, err := build(w, in, t.TempDir(), identity)
	if err != nil {
		t.Fatal(err)
	}
	defer s.teardown()
	r := routine.New("one", routine.Command{Device: "plug-0", Target: device.On})
	rid, err := s.m.Submit(in.ids[0], r)
	if err != nil {
		t.Fatal(err)
	}
	var c checks
	checkAcks(&c, s, in, []ack{{home: 0, rid: rid}}, drainTimeout)
	if len(c.failures) != 0 {
		t.Fatalf("real acknowledgement rejected: %v", c.failures)
	}
	checkAcks(&c, s, in, []ack{{home: 0, rid: rid}, {home: 0, rid: rid}, {home: 0, rid: rid + 1000}}, drainTimeout)
	if len(c.failures) != 2 {
		t.Errorf("want a duplicate and a missing result reported, got %v", c.failures)
	}
}
