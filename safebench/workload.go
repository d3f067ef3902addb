package main

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"safehome/internal/device"
	"safehome/internal/manager"
	"safehome/internal/routine"
)

// workload is one traffic mix. Every field is fixed per workload so that two
// commits are always measured at the same offered load; only the seed varies
// the generated inputs.
type workload struct {
	name string

	homes int
	plugs int
	// skew is the power-law exponent of tenant popularity: home i gets
	// weight 1/(i+1)^skew. 0 is uniform.
	skew    float64
	journal bool // group-tier journal in a temp data dir; false = memory-only
	http    bool // primary door is HTTP over loopback; false = in-process

	rate    float64 // open-loop offered ops/s, writes plus reads
	workers int     // open-loop in-flight bound (connections when http)
	clients int     // closed-loop clients

	// backlog is the number of long-hold routines pre-loaded per home during
	// set-up, spread over the first half of its devices.
	backlog int

	// setups is how many times a run builds the system; setup_s is their
	// median. A journaled set-up takes ~10 ms, so it takes many to steady it.
	setups int
}

// Every workload mixes reads of its own routines beside the writes, and
// holds each foreground command for an explicit short time: with the 100 ms
// default hold a Zipf-hot home receives routines faster than its devices
// finish them, and its open set grows for the whole run.
const (
	readShare = 0.25
	hold      = 20 * time.Millisecond
)

// bgShare is the share of foreground routines that touch a backlog device
// when there is a backlog: they wait behind it, so placement has to walk
// its precedence graph.
const bgShare = 0.02

// backlogHold outlives any run, so the backlog stays open for the whole
// measurement; Close finishes it at virtual speed.
const backlogHold = time.Hour

// workloads, in BENCHMARK.json's order; BENCHMARK.json says why each was
// chosen and which layer should dominate it.
var workloads = []workload{
	{
		// The served stack end to end over two keep-alive connections.
		name:  "http-mixed",
		homes: 64, plugs: 5, skew: 1.2, journal: true, http: true,
		rate: 300, workers: 2, clients: 2,
		setups: 31,
	},
	{
		// Many tenants writing at once in-process: mailbox batching and
		// cross-home group commit coalesce.
		name:  "fleet-group",
		homes: 64, plugs: 5, skew: 0.5, journal: true,
		rate: 1000, workers: 32, clients: 64,
		setups: 31,
	},
	{
		// Placement and snapshot export against a standing open set.
		name:  "backlog-live",
		homes: 4, plugs: 100, journal: false,
		rate: 400, workers: 32, clients: 64,
		backlog: 1000,
		setups:  5,
	},
}

// backlogDevs is how many devices of a home carry its backlog.
func (w workload) backlogDevs() int { return w.plugs / 2 }

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// request is one pre-built submit: the routine for the in-process door and
// the same routine as a Fig 10 JSON body for the HTTP door.
type request struct {
	home int
	r    *routine.Routine
	body []byte
	bg   bool // touches a backlog device: waits behind the backlog
}

// op is one scheduled open-loop operation.
type op struct {
	due  time.Duration // offset from the phase start
	read bool
	pick uint32 // read: which recent acknowledgement to read back
	req  *request
}

// inputs holds everything generated from the seed before any timing starts:
// home IDs, their HTTP paths, and the requests of every phase.
type inputs struct {
	ids        []manager.HomeID
	postPaths  []string // /homes/<id>/routines
	devices    []device.ID
	warm, open []op
	traced     []op
	closed     [][]*request // per closed-loop client, cycled
	backlog    [][]*routine.Routine
}

// gen draws requests for one workload from a seeded source.
type gen struct {
	w   workload
	rng *rand.Rand
	cdf []float64 // tenant popularity
	n   int       // routine name counter
}

func newGen(w workload, seed int64) *gen {
	g := &gen{w: w, rng: rand.New(rand.NewSource(seed))}
	g.cdf = make([]float64, w.homes)
	total := 0.0
	for i := range g.cdf {
		total += 1 / math.Pow(float64(i+1), w.skew)
		g.cdf[i] = total
	}
	for i := range g.cdf {
		g.cdf[i] /= total
	}
	return g
}

func (g *gen) home() int {
	u := g.rng.Float64()
	return min(sort.SearchFloat64s(g.cdf, u), g.w.homes-1)
}

func (g *gen) action() device.State {
	if g.rng.Intn(2) == 0 {
		return device.On
	}
	return device.Off
}

// request builds one foreground 1-command routine. With a backlog, the
// foreground lives on the devices the backlog leaves free, except for the
// bgShare that deliberately lands on a backlog device.
func (g *gen) request(devices []device.ID, hold time.Duration) *request {
	w := g.w
	lo, hi := 0, w.plugs
	bg := false
	if w.backlog > 0 {
		lo = w.backlogDevs()
		if g.rng.Float64() < bgShare {
			lo, hi, bg = 0, w.backlogDevs(), true
		}
	}
	dev := devices[lo+g.rng.Intn(hi-lo)]
	g.n++
	name := "r" + strconv.Itoa(g.n)
	cmd := routine.Command{Device: dev, Target: g.action(), Duration: hold}
	r := routine.New(name, cmd)
	body := make([]byte, 0, 128)
	body = append(body, `{"routine_name":"`...)
	body = append(body, name...)
	body = append(body, `","commands":[{"device":"`...)
	body = append(body, dev...)
	body = append(body, `","action":"`...)
	body = append(body, cmd.Target...)
	body = append(body, `","duration_ms":`...)
	body = strconv.AppendInt(body, hold.Milliseconds(), 10)
	body = append(body, `}]}`...)
	return &request{home: g.home(), r: r, body: body, bg: bg}
}

// schedule lays out an open-loop phase: ops at exponential inter-arrival
// times (Poisson arrivals) at the workload's rate.
func (g *gen) schedule(d time.Duration, devices []device.ID) []op {
	var ops []op
	t := 0.0
	for {
		t += g.rng.ExpFloat64() / g.w.rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return ops
		}
		o := op{due: due}
		if g.rng.Float64() < readShare {
			o.read = true
			o.pick = g.rng.Uint32()
		} else {
			o.req = g.request(devices, hold)
		}
		ops = append(ops, o)
	}
}

// closedHold is the hold of closed-loop routines: short enough that the
// devices finish them faster than any client count can submit, so the
// capacity phase measures acknowledgement, not a growing device queue.
const closedHold = 2 * time.Millisecond

// closedPool is how many distinct requests each closed-loop client cycles
// through. Routines are immutable once built, so re-submitting one is
// a fresh routine to the system.
const closedPool = 512

func generate(w workload, seed int64, ph phases) *inputs {
	g := newGen(w, seed)
	in := &inputs{devices: device.Plugs(w.plugs).IDs()}
	for i := 0; i < w.homes; i++ {
		id := manager.HomeID("home-" + strconv.Itoa(i))
		in.ids = append(in.ids, id)
		in.postPaths = append(in.postPaths, "/homes/"+string(id)+"/routines")
	}
	in.warm = g.schedule(ph.warm, in.devices)
	in.open = g.schedule(ph.open, in.devices)
	in.traced = g.schedule(ph.traced, in.devices)
	if ph.closed > 0 {
		// Each closed-loop client keeps to one home, round-robin, so every
		// home sees the same number of waiting clients and its batches keep
		// one size from run to run.
		in.closed = make([][]*request, w.clients)
		for c := range in.closed {
			for i := 0; i < closedPool; i++ {
				req := g.request(in.devices, closedHold)
				for req.bg { // a closed-loop client must never park behind the backlog
					req = g.request(in.devices, closedHold)
				}
				req.home = c % w.homes
				in.closed[c] = append(in.closed[c], req)
			}
		}
	}
	for h := 0; h < w.homes && w.backlog > 0; h++ {
		in.backlog = append(in.backlog, g.backlogRoutines(in.devices))
	}
	return in
}

// backlogRoutines builds one home's standing backlog: long holds spread
// round-robin over the backlog devices, so each device carries a queue.
func (g *gen) backlogRoutines(devices []device.ID) []*routine.Routine {
	out := make([]*routine.Routine, g.w.backlog)
	for i := range out {
		dev := devices[i%g.w.backlogDevs()]
		out[i] = routine.New("bg"+strconv.Itoa(i), routine.Command{Device: dev, Target: g.action(), Duration: backlogHold})
	}
	return out
}
