package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"safehome/internal/manager"
	"safehome/internal/routine"
)

// errShed is a load-shed answer: ErrOverloaded in-process, 429 over HTTP.
var errShed = errors.New("shed")

// door is one way into the program. w is the calling worker (its HTTP
// connection); req is the request ID spans are recorded under.
type door interface {
	submit(w int, r *request, req int64) (routine.ID, error)
	read(w int, home int, rid routine.ID, req int64) error
}

// directDoor calls the manager in-process. Untraced it uses Manager.Submit
// and Manager.Result; traced it splits them into Manager.Runtime followed by
// the HomeRuntime call, so the lookup and the runtime get spans of their own.
type directDoor struct {
	m   *manager.Manager
	ids []manager.HomeID
	tr  *tracer
}

func (d *directDoor) submit(_ int, r *request, req int64) (routine.ID, error) {
	if d.tr == nil {
		rid, err := d.m.Submit(d.ids[r.home], r.r)
		return rid, shedErr(err)
	}
	t0 := d.tr.now()
	home, err := d.m.Runtime(d.ids[r.home])
	t1 := d.tr.now()
	d.tr.add(kManagerLookup, req, kManagerSubmit, t0, t1, false)
	if err != nil {
		return routine.None, err
	}
	rid, err := home.Submit(r.r)
	t2 := d.tr.now()
	d.tr.add(kRuntimeSubmit, req, 0, t1, t2, false)
	d.tr.add(kManagerSubmit, req, 0, t0, t2, false)
	return rid, shedErr(err)
}

func (d *directDoor) read(_ int, home int, rid routine.ID, req int64) error {
	if d.tr == nil {
		_, ok, err := d.m.Result(d.ids[home], rid)
		return readErr(ok, err, rid)
	}
	t0 := d.tr.now()
	h, err := d.m.Runtime(d.ids[home])
	t1 := d.tr.now()
	d.tr.add(kManagerLookup, req, kManagerRead, t0, t1, false)
	if err != nil {
		return err
	}
	_, ok := h.Result(rid)
	t2 := d.tr.now()
	d.tr.add(kRuntimeRead, req, 0, t1, t2, false)
	d.tr.add(kManagerRead, req, 0, t0, t2, false)
	return readErr(ok, nil, rid)
}

func shedErr(err error) error {
	if errors.Is(err, manager.ErrOverloaded) {
		return errShed
	}
	return err
}

func readErr(ok bool, err error, rid routine.ID) error {
	if err == nil && !ok {
		err = fmt.Errorf("read: routine %d has no result", rid)
	}
	return err
}

// httpDoor drives the hub's routes. Over the network each worker owns one
// keep-alive connection; with handler set, requests are served in memory
// through the handler instead (no listener, no transport).
type httpDoor struct {
	urls    []string // per home: <base>/homes/<id>/routines
	clients []*http.Client
	handler http.Handler
	tr      *tracer
}

// reqHeader carries the request ID from the client to the tracing
// middleware.
const reqHeader = "X-Bench-Req"

func newHTTPDoor(base string, postPaths []string, conns int, handler http.Handler, tr *tracer) *httpDoor {
	d := &httpDoor{handler: handler, tr: tr}
	for _, p := range postPaths {
		d.urls = append(d.urls, base+p)
	}
	for i := 0; i < conns && handler == nil; i++ {
		d.clients = append(d.clients, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return d
}

func (d *httpDoor) close() {
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
}

func (d *httpDoor) do(w int, hr *http.Request, req int64) (int, []byte, error) {
	if d.tr != nil {
		hr.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	}
	if d.handler != nil {
		rec := httptest.NewRecorder()
		d.handler.ServeHTTP(rec, hr)
		return rec.Code, rec.Body.Bytes(), nil
	}
	resp, err := d.clients[w%len(d.clients)].Do(hr)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

func (d *httpDoor) submit(w int, r *request, req int64) (routine.ID, error) {
	hr, err := http.NewRequest(http.MethodPost, d.urls[r.home], bytes.NewReader(r.body))
	if err != nil {
		return routine.None, err
	}
	code, body, err := d.do(w, hr, req)
	if err != nil {
		return routine.None, err
	}
	if code == http.StatusTooManyRequests {
		return routine.None, errShed
	}
	if code != http.StatusAccepted {
		return routine.None, fmt.Errorf("POST %s: status %d: %s", d.urls[r.home], code, body)
	}
	return parseID(body)
}

func (d *httpDoor) read(w int, home int, rid routine.ID, req int64) error {
	hr, err := http.NewRequest(http.MethodGet, d.urls[home]+"/"+strconv.FormatInt(int64(rid), 10), nil)
	if err != nil {
		return err
	}
	code, body, err := d.do(w, hr, req)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", hr.URL, code, body)
	}
	return nil
}

// parseID extracts N from the submit answer {"id":N}.
func parseID(body []byte) (routine.ID, error) {
	i := bytes.Index(body, []byte(`"id":`))
	if i < 0 {
		return routine.None, fmt.Errorf("submit answer without id: %s", body)
	}
	j := i + len(`"id":`)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	n, err := strconv.ParseInt(string(body[j:k]), 10, 64)
	if err != nil || n <= 0 {
		return routine.None, fmt.Errorf("submit answer with bad id: %s", body)
	}
	return routine.ID(n), nil
}

// traceMiddleware times the hub's ServeHTTP for requests that carry a
// request ID.
func traceMiddleware(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		t0 := tr.now()
		h.ServeHTTP(w, r)
		if err == nil {
			tr.add(kHubServe, req, 0, t0, tr.now(), r.Method == http.MethodPost)
		}
	})
}

// ack is one acknowledged submit.
type ack struct {
	home int
	rid  routine.ID
	req  *request // nil for backlog routines
}

// ackRing is the shared ring of recent acknowledgements reads pick from, so a
// read always targets a routine this client submitted.
type ackRing struct {
	slots [1024]atomic.Uint64 // home<<40 | rid
	n     atomic.Uint64
}

func (a *ackRing) put(home int, rid routine.ID) {
	i := a.n.Add(1) - 1
	a.slots[i%uint64(len(a.slots))].Store(uint64(home)<<40 | uint64(rid))
}

func (a *ackRing) pick(p uint32) (int, routine.ID, bool) {
	n := a.n.Load()
	if n == 0 {
		return 0, 0, false
	}
	filled := min(n, uint64(len(a.slots)))
	v := a.slots[uint64(p)%filled].Load()
	if v == 0 {
		return 0, 0, false // claimed but not yet stored
	}
	return int(v >> 40), routine.ID(v & (1<<40 - 1)), true
}

// phaseResult is what one load phase observed.
type phaseResult struct {
	ack, read, late dist
	// ackAt and readAt are, per ack and read sample, when the op was due;
	// doneAt is when each closed-loop submit was acknowledged. All are
	// offsets from the phase start.
	ackAt, readAt, doneAt []time.Duration
	ackOp                 []int // per ack sample, the op's index in the schedule
	acks                  []ack
	reads                 int64
	shed, errs            int64
	firstErr              error
}

func (p *phaseResult) merge(o *phaseResult) {
	p.ack = append(p.ack, o.ack...)
	p.read = append(p.read, o.read...)
	p.ackAt = append(p.ackAt, o.ackAt...)
	p.ackOp = append(p.ackOp, o.ackOp...)
	p.readAt = append(p.readAt, o.readAt...)
	p.doneAt = append(p.doneAt, o.doneAt...)
	p.late = append(p.late, o.late...)
	p.acks = append(p.acks, o.acks...)
	p.reads += o.reads
	p.shed += o.shed
	p.errs += o.errs
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}

func (p *phaseResult) fail(err error) {
	if errors.Is(err, errShed) {
		p.shed++
		return
	}
	p.errs++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// openLoop runs a precomputed schedule: each op is due at start+op.due no
// matter how the program answers. One dispatcher releases ops on schedule to
// a bounded set of workers; when every worker is busy an op waits, and since
// latency is timed from the due time, a stall is charged to every op it
// delays. The dispatcher's own lateness is reported separately: it is the
// generator's error, not the program's. doorFor picks the door per op index
// (tracing mixes doors); reqBase offsets the op index into a request ID.
func openLoop(ops []op, workers int, ring *ackRing, reqBase int64, doorFor func(i int) door, tr *tracer) *phaseResult {
	var mu sync.Mutex
	var wg sync.WaitGroup
	total := &phaseResult{}
	released := make(chan int, len(ops)) // sized to the phase: the dispatcher never blocks
	start := time.Now().Add(2 * time.Millisecond)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &phaseResult{}
			for i := range released {
				o := &ops[i]
				due := start.Add(o.due)
				req := reqBase + int64(i)
				d := doorFor(i)
				var c0 int64
				if tr != nil {
					c0 = tr.now()
				}
				if o.read {
					home, rid, ok := ring.pick(o.pick)
					if !ok {
						continue // nothing acknowledged yet to read back
					}
					if err := d.read(w, home, rid, req); err != nil {
						res.fail(err)
						continue
					}
					res.reads++
					res.read = append(res.read, time.Since(due))
					res.readAt = append(res.readAt, o.due)
				} else {
					rid, err := d.submit(w, o.req, req)
					if err != nil {
						res.fail(err)
						continue
					}
					res.ack = append(res.ack, time.Since(due))
					res.ackAt = append(res.ackAt, o.due)
					res.ackOp = append(res.ackOp, i)
					res.acks = append(res.acks, ack{home: o.req.home, rid: rid, req: o.req})
					ring.put(o.req.home, rid)
				}
				if tr != nil {
					tr.add(kClient, req, 0, c0, tr.now(), false)
				}
			}
			mu.Lock()
			total.merge(res)
			mu.Unlock()
		}()
	}
	for i := range ops {
		due := start.Add(ops[i].due)
		sleepUntil(due)
		total.late = append(total.late, time.Since(due))
		released <- i
		// Let the woken worker run now: if it sat in this P's run queue while
		// the dispatcher slept in nanosleep, it would wait for the runtime
		// to take the P back.
		runtime.Gosched()
	}
	close(released)
	wg.Wait()
	return total
}

// sleepUntil blocks the calling thread in nanosleep until t. A short
// time.Sleep can wake up to a millisecond late (measured on a 2-vCPU Linux
// VM), which would swamp the in-process latencies; nanosleep is good to
// tens of microseconds.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: go round again
	}
}

// closedLoop runs one client per pool: each submits its next request as soon
// as the previous one is answered, until d has passed. A shed request is
// retried after a backoff that doubles up to 8 ms, instead of spinning.
func closedLoop(pools [][]*request, d time.Duration, dr door) *phaseResult {
	var mu sync.Mutex
	var wg sync.WaitGroup
	total := &phaseResult{}
	start := time.Now()
	deadline := start.Add(d)
	for c, pool := range pools {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &phaseResult{}
			backoff := time.Millisecond
			for k := 0; time.Now().Before(deadline); {
				r := pool[k%len(pool)]
				rid, err := dr.submit(c, r, -1)
				if errors.Is(err, errShed) {
					res.fail(err)
					time.Sleep(backoff)
					backoff = min(2*backoff, 8*time.Millisecond)
					continue
				}
				backoff = time.Millisecond
				k++
				if err != nil {
					res.fail(err)
					continue
				}
				res.acks = append(res.acks, ack{home: r.home, rid: rid, req: r})
				res.doneAt = append(res.doneAt, time.Since(start))
			}
			mu.Lock()
			total.merge(res)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}
