package main

import (
	"cmp"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// dist is a set of duration samples.
type dist []time.Duration

// quantile returns the nearest-rank q-quantile (0 for no samples).
func (d dist) quantile(q float64) time.Duration { return nearestRank(d, q) }

func nearestRank[T cmp.Ordered](xs []T, q float64) T {
	var zero T
	if len(xs) == 0 {
		return zero
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func (d dist) max() time.Duration {
	if len(d) == 0 {
		return 0
	}
	return slices.Max(d)
}

// windows is how many equal windows a phase is cut into; a phase metric is
// the median of its per-window values, so one noisy stretch of a run moves
// it less than it moves a whole-phase figure.
const windows = 10

// windowedQuantile returns each window's q-quantile; at[i] places sample i
// in its window. Empty windows are skipped.
func windowedQuantile(d dist, at []time.Duration, phase time.Duration, q float64) []float64 {
	per := make([]dist, windows)
	for i, v := range d {
		w := min(int(at[i]*windows/phase), windows-1)
		per[w] = append(per[w], v)
	}
	var qs []float64
	for _, p := range per {
		if len(p) > 0 {
			qs = append(qs, ms(p.quantile(q)))
		}
	}
	return qs
}

// windowedRate returns each window's events per second, given each event's
// time.
func windowedRate(at []time.Duration, phase time.Duration) []float64 {
	counts := make([]float64, windows)
	for _, t := range at {
		if t < phase {
			counts[int(t*windows/phase)]++
		}
	}
	for i := range counts {
		counts[i] /= phase.Seconds() / windows
	}
	return counts
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// goStats reads the runtime/metrics the benchmark reports.
type goStats struct {
	liveHeap   uint64  // bytes live after the last GC
	allocBytes uint64  // cumulative heap allocations
	gcCPU      float64 // cumulative GC CPU seconds (estimate)
	totalCPU   float64 // cumulative CPU seconds available to the Go runtime
}

var goStatNames = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{liveHeap: u(0), allocBytes: u(1), gcCPU: f(2), totalCPU: f(3)}
}

// sampler calls fn every period on its own goroutine until stop returns.
type sampler struct {
	done chan struct{}
	wg   sync.WaitGroup
}

func startSampler(period time.Duration, fn func()) *sampler {
	s := &sampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			fn()
			select {
			case <-s.done:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) stop() {
	close(s.done)
	s.wg.Wait()
}
