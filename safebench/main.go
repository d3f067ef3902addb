// Command safebench is SafeHome's end-to-end benchmark. It builds a
// manager.Manager in-process, drives it with seeded load from the same
// process, checks the program's outputs, and prints every metric by name
// and unit; the last line of standard output is one JSON object.
//
//	safebench --workload http-mixed --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced mode,
// which records spans around the calls the benchmark makes into each layer
// and prints the per-layer metrics. The exit code is non-zero when any
// output check fails. run.sh builds this package inside the checkout and
// runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// endToEnd and perLayer are the metrics the final JSON line carries in
// untraced and traced mode; they match BENCHMARK.json. The report lines
// print more: the JSON keeps the metrics that every workload measures and
// that repeat closely enough across seeds to gate a change on. Wall-clock
// latency and capacity are printed, not gated: on a shared virtual machine
// they move with the hypervisor's steal time by more than any bound allows.
var (
	endToEnd = []string{"setup_s", "cpu_open_us_per_op", "routine_mean_ms", "heap_peak_mb"}
	perLayer = []string{
		"hub.serve_write_us.p50", "hub.serve_read_us.p50", "routine.parse_us.p50",
		"manager.submit_us.p50", "manager.lookup_us.p50",
		"runtime.submit_us.p50", "runtime.submit_us.p99", "runtime.read_us.p50", "runtime.ops_per_publish",
		"visibility.open_routines.max", "visibility.place_us.p50", "visibility.place_us.p99", "visibility.export_us.p50",
		"journal.bytes_per_op", "journal.fsyncs_per_op",
		"go.gc_cpu_frac", "go.alloc_bytes_per_op", "gen.late_ms.p99",
	}
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	scratch  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("safebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: http-mixed, fleet-group or backlog-live")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced mode and prints per-layer metrics")
	scratch := fs.String("scratch", ".bench_build/run", "directory for data dirs and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "safebench: need --workload (one of http-mixed, fleet-group, backlog-live), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "safebench: %v\n", err)
		return 1
	}
	opts := options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, scratch: *scratch}
	var res *result
	var err error
	if opts.trace {
		res, err = runTraced(opts)
	} else {
		res, err = runUntraced(opts)
	}
	if err != nil {
		fmt.Fprintf(stderr, "safebench: %v\n", err)
		return 1
	}
	res.print(stdout, opts)
	if len(res.checks.failures) > 0 {
		for _, f := range res.checks.failures {
			fmt.Fprintf(stderr, "safebench: check failed: %s\n", f)
		}
		return 1
	}
	return 0
}

// metric is one reported number. n is its sample count (0: not a
// distribution); na marks a metric that does not apply to the workload.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	na    bool
	// windows holds the per-window values the value is the median of.
	windows []float64
}

type result struct {
	metrics   []metric
	attempted int64
	failed    int64
	checks    checks
	env       map[string]any
	notes     []string
}

func (r *result) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, n: n})
}

// addWindows reports the median of per-window values and keeps the
// windows for the report.
func (r *result) addWindows(name string, perWindow []float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name: name, value: median(perWindow), unit: unit, n: n, windows: perWindow})
}

func (r *result) addNA(name, unit string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, na: true})
}

func (r *result) addQ(name string, d dist, q float64, unit string) {
	if len(d) == 0 {
		r.addNA(name, unit)
		return
	}
	v := d.quantile(q)
	if unit == "us" {
		r.add(name, us(v), unit, len(d))
	} else {
		r.add(name, ms(v), unit, len(d))
	}
}

// environment records what a result depends on besides the code.
func environment(o options, ph phases) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	w := o.workload
	return map[string]any{
		"workload":       w.name,
		"seed":           o.seed,
		"trace":          o.trace,
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"go":             runtime.Version(),
		"commit":         commit,
		"rate_ops_s":     w.rate,
		"read_share":     readShare,
		"open_workers":   w.workers,
		"closed_clients": w.clients,
		"http":           w.http,
		"homes":          w.homes,
		"plugs":          w.plugs,
		"backlog":        w.backlog,
		"phases_s": map[string]float64{
			"warm": ph.warm.Seconds(), "open": ph.open.Seconds(),
			"closed": ph.closed.Seconds(), "traced": ph.traced.Seconds(),
		},
	}
}

func (r *result) print(out io.Writer, o options) {
	env, _ := json.Marshal(r.env)
	fmt.Fprintf(out, "env %s\n", env)
	for _, n := range r.notes {
		fmt.Fprintf(out, "note %s\n", n)
	}
	for _, m := range r.metrics {
		switch {
		case m.na:
			fmt.Fprintf(out, "%-32s n/a %s\n", m.name, m.unit)
		case len(m.windows) > 0:
			fmt.Fprintf(out, "%-32s %.6g %s (n=%d, median of windows %.4g)\n", m.name, m.value, m.unit, m.n, m.windows)
		case m.n > 0:
			fmt.Fprintf(out, "%-32s %.6g %s (n=%d)\n", m.name, m.value, m.unit, m.n)
		default:
			fmt.Fprintf(out, "%-32s %.6g %s\n", m.name, m.value, m.unit)
		}
	}
	fmt.Fprintf(out, "checks passed: %v\n", r.checks.passed)
	for _, f := range r.checks.failures {
		fmt.Fprintf(out, "check FAILED: %s\n", f)
	}

	want := endToEnd
	if o.trace {
		want = perLayer
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{
		Correct:   len(r.checks.failures) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]jm{},
	}
	for _, m := range r.metrics {
		if slices.Contains(want, m.name) {
			v := m.value
			if m.na {
				v = 0
			}
			line.Metrics[m.name] = jm{Value: v, Unit: m.unit}
		}
	}
	b, _ := json.Marshal(line)
	fmt.Fprintf(out, "%s\n", b)
}

// phases are the lengths of a run's load phases.
type phases struct {
	warm, open, closed, traced time.Duration
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
