package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os/exec"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mw/internal/core"
	"mw/internal/mml"
	"mw/internal/vec"
)

// serve-mix parameters. The rates are absolute: light and heavy sit at
// about an eighth and a quarter of the ~4000/s max_rps measured on the
// reference machine (README.md), and the ladder spans well past it.
const (
	tenants        = 64
	snapShare      = 0.2 // share of requests that are snapshot reads
	connections    = 2   // client connections = in-flight requests
	lightRate      = 500.0
	heavyRate      = 1000.0
	p99LimitMS     = 50.0  // max_rps limit on the step-request p99: an interactive viewer's frame budget
	lateP50Bound   = 1000  // µs; generator wake-up lateness beyond which a run is invalid
	lateP99Bound   = 50000 // µs; as late as the max_rps latency limit
	setupReps      = 5     // daemon boots per run; setup_s is their median
	requestTimeout = 5 * time.Second
	satDraw        = 20000.0 // per second: the saturation phases' request mix, more than they can send
)

// rateLadder is the fixed ladder max_rps is searched on (×1.05 per rung).
var rateLadder = func() []float64 {
	var l []float64
	for r := 1000.0; r < 8000; r *= 1.05 {
		l = append(l, math.Round(r))
	}
	return l
}()

// daemon is one mwserved process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	hc   *http.Client // set-up and checks
	// conns are the load generator's keep-alive connections, kept across
	// phases so no phase pays for connecting.
	conns [connections]*conn
}

// addrWriter captures the daemon's "listening on ADDR" line.
type addrWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf.Write(p)
	if line, _, ok := strings.Cut(w.buf.String(), "\n"); ok {
		w.sent = true
		if rest, ok := strings.CutPrefix(line, "mwserved listening on "); ok {
			addr, _, _ := strings.Cut(rest, " ")
			w.addr <- addr
		} else {
			w.addr <- ""
		}
	}
	return len(p), nil
}

// startDaemon launches mwserved on a free loopback port with its default
// settings and waits until it answers /healthz.
func startDaemon(bin string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no mwserved binary given (--mwserved)")
	}
	aw := &addrWriter{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stdout = aw
	// The daemon must not outlive the benchmark, even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mwserved: %w", err)
	}
	d := &daemon{cmd: cmd, hc: &http.Client{Timeout: requestTimeout}}

	select {
	case addr := <-aw.addr:
		if addr == "" {
			d.stop()
			return nil, errors.New("mwserved did not report its address")
		}
		d.base = "http://" + addr
		for i := range d.conns {
			d.conns[i] = &conn{addr: addr}
		}
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, errors.New("mwserved did not start within 10s")
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := d.hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("mwserved never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop shuts the daemon down (SIGTERM, then SIGKILL after 5 s) and waits
// for it to exit.
func (d *daemon) stop() {
	d.hc.CloseIdleConnections()
	for _, c := range d.conns {
		c.close()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // exit status of a terminated daemon is not a result
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// upload creates one session per model body and returns the session ids.
func (d *daemon) upload(bodies [][]byte) ([]string, error) {
	ids := make([]string, len(bodies))
	for k, b := range bodies {
		resp, err := d.hc.Post(d.base+"/v1/sessions", "application/json", bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("uploading tenant %d: %w", k, err)
		}
		var created struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&created)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated || err != nil || created.ID == "" {
			return nil, fmt.Errorf("uploading tenant %d: status %d, %v", k, resp.StatusCode, err)
		}
		ids[k] = created.ID
	}
	return ids, nil
}

// stepBody is the part of a step response the traced run reads.
type stepBody struct {
	WallUS      float64 `json:"wall_us"`
	BatchSize   int     `json:"batch_size"`
	QueueWaitUS float64 `json:"queue_wait_us"`
	BatchWaitUS float64 `json:"batch_wait_us"`
	ComputeUS   float64 `json:"compute_us"`
}

// sample is one request of a load phase.
type sample struct {
	snapshot bool
	failure  string  // empty on a 2xx answer
	lateUS   float64 // generator wake-up lateness; -1 if the connection was busy at the due time
	delayUS  float64 // send time − due time
	latUS    float64 // completion − due time: the open-loop latency
	e2eUS    float64 // completion − send time
	bytes    int
	step     stepBody // traced runs only
}

// phaseStats summarizes one load phase.
type phaseStats struct {
	offered, achieve float64 // requests per second
	steps, snaps     []float64
	late             []float64
	failures         []string
	samples          []sample
	tailDelayUS      float64 // p50 send delay over the last quarter
}

// load replays sched open-loop over the connections. Each connection takes
// the next arrival, waits for its due time if early, sends, and reads the
// whole answer; latency runs from the due time, so a stalled server is
// charged for the requests queued behind the stall.
func (d *daemon) load(ids []string, sched []arrival, traced bool) phaseStats {
	samples := make([]sample, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for _, c := range d.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				due := start.Add(time.Duration(a.At * float64(time.Second)))
				s := &samples[i]
				s.snapshot = a.Snapshot
				s.lateUS = -1
				if wait := time.Until(due); wait > 0 {
					sleep(wait)
					s.lateUS = micros(time.Since(due))
				}
				sent := time.Now()
				s.delayUS = micros(sent.Sub(due))
				c.send(ids[a.Tenant], s, traced)
				done := time.Now()
				s.latUS = micros(done.Sub(due))
				s.e2eUS = micros(done.Sub(sent))
			}
		}(c)
	}
	wg.Wait()

	ps := phaseStats{samples: samples}
	var last time.Duration
	for i, s := range samples {
		if end := time.Duration(sched[i].At*float64(time.Second)) + time.Duration(s.latUS*1e3); end > last {
			last = end
		}
		if s.lateUS >= 0 {
			ps.late = append(ps.late, s.lateUS)
		}
		switch {
		case s.failure != "":
			ps.failures = append(ps.failures, s.failure)
		case s.snapshot:
			ps.snaps = append(ps.snaps, s.latUS)
		default:
			ps.steps = append(ps.steps, s.latUS)
		}
	}
	if n := len(sched); n > 0 {
		ps.offered = float64(n) / sched[n-1].At
		ps.achieve = float64(n-len(ps.failures)) / last.Seconds()
		tail := make([]float64, 0, n/4+1)
		for _, s := range samples[n-n/4:] {
			tail = append(tail, s.delayUS)
		}
		ps.tailDelayUS = median(tail)
	}
	return ps
}

// saturate sends sched's requests closed-loop for dur, ignoring their
// times: each connection sends its next request as soon as it has read the
// previous answer. The answered requests per second are the daemon's
// throughput at the generator's two requests in flight.
func (d *daemon) saturate(ids []string, sched []arrival, dur time.Duration) phaseStats {
	samples := make([]sample, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for _, c := range d.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				s := &samples[i]
				s.snapshot = sched[i].Snapshot
				sent := time.Now()
				c.send(ids[sched[i].Tenant], s, false)
				s.e2eUS = micros(time.Since(sent))
				s.latUS = s.e2eUS
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	ps := phaseStats{samples: samples[:min(int(next.Load()), len(sched))]}
	for _, s := range ps.samples {
		switch {
		case s.failure != "":
			ps.failures = append(ps.failures, s.failure)
		case s.snapshot:
			ps.snaps = append(ps.snaps, s.latUS)
		default:
			ps.steps = append(ps.steps, s.latUS)
		}
	}
	ps.achieve = float64(len(ps.samples)-len(ps.failures)) / elapsed.Seconds()
	ps.offered = ps.achieve
	return ps
}

// conn is one keep-alive HTTP/1.1 connection of the load generator. It
// writes each request and reads its answer on the calling goroutine, into
// a reused buffer: no transport goroutines and little garbage, so the
// generator takes as little as it can from the two CPUs it shares with
// the daemon.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	req  []byte
	body bytes.Buffer
}

func (c *conn) close() {
	if c != nil && c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// roundTrip sends one body-less request and reads the whole answer.
func (c *conn) roundTrip(method, path string) (status int, body []byte, err error) {
	if c.nc == nil {
		if c.nc, err = net.Dial("tcp", c.addr); err != nil {
			return 0, nil, err
		}
		c.br = bufio.NewReaderSize(c.nc, 64<<10)
	}
	if err := c.nc.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		c.close()
		return 0, nil, err
	}
	c.req = append(c.req[:0], method...)
	c.req = append(c.req, ' ')
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.addr...)
	c.req = append(c.req, "\r\nContent-Length: 0\r\n\r\n"...)
	if _, err := c.nc.Write(c.req); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, c.body.Bytes(), err
}

// sleep blocks the calling thread in nanosleep(2). The runtime's timers
// wake a sleeping goroutine only at the network poller's millisecond
// granularity, which made the generator ~0.5 ms late at the median; the
// raw system call is late by under 0.1 ms.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// send performs sample s's request on c and fills in its outcome.
func (c *conn) send(id string, s *sample, traced bool) {
	path := "/v1/sessions/" + id + "/step?n=1"
	method := http.MethodPost
	if s.snapshot {
		path, method = "/v1/sessions/"+id+"/snapshot", http.MethodGet
	}
	status, body, err := c.roundTrip(method, path)
	s.bytes = len(body)
	switch {
	case err != nil:
		s.failure = "transport: " + err.Error()
	case status/100 != 2:
		s.failure = fmt.Sprintf("status %d", status)
	case traced && !s.snapshot:
		if err := json.Unmarshal(body, &s.step); err != nil {
			s.failure = "step answer: " + err.Error()
		}
	}
}

// loadPhase runs one open-loop phase at rate for dur, or a closed-loop
// saturation phase if rate is 0, and counts its requests into rep.
func (d *daemon) loadPhase(rep *report, ids []string, seed, label int64, rate float64, dur time.Duration, traced bool) phaseStats {
	var ps phaseStats
	if rate == 0 {
		ps = d.saturate(ids, poissonSchedule(seed, label, satDraw, dur.Seconds(), len(ids), snapShare), dur)
	} else {
		ps = d.load(ids, poissonSchedule(seed, label, rate, dur.Seconds(), len(ids), snapShare), traced)
	}
	rep.attempted += len(ps.samples)
	reasons := map[string]int{}
	for _, f := range ps.failures {
		reasons[f]++
	}
	for why, n := range reasons {
		rep.fail(n, why)
	}
	return ps
}

// passes reports whether a ladder rung holds: the step p99 within the
// limit, and no backlog left growing at the end of the phase.
func (ps phaseStats) passes() (bool, float64) {
	if len(ps.failures) > 0 {
		return false, math.Inf(1)
	}
	p, err := percentile(ps.steps, 0.99)
	if err != nil {
		return false, math.Inf(1)
	}
	ok := p.Value <= p99LimitMS*1e3 && ps.tailDelayUS <= p99LimitMS*1e3/2
	return ok, p.Value
}

// ladderSearch binary-searches the ladder for the highest rung that
// passes, one probe at a time, so its probes can be spread over the run. A
// probe that misses by less than 2× the limit, or while more than maxSteal
// of the CPU time was stolen, is inconclusive: the next probe tries the
// same rung again, up to maxRetries times per search. Machine noise only
// ever slows the server, so such a miss may be noise but a pass is not;
// and a burst of steal lasts seconds, so the retry waits for the next
// probe slot instead of following at once.
type ladderSearch struct {
	lo, hi       int // highest passing, lowest failing rung
	loP99, hiP99 float64
	probes       int // probes made, which labels each probe's schedule
	retries      int
}

const maxRetries = 4

func newLadderSearch() *ladderSearch {
	return &ladderSearch{lo: -1, hi: len(rateLadder), hiP99: math.Inf(1)}
}

func (ls *ladderSearch) done() bool { return ls.hi-ls.lo <= 1 }

// step probes the middle rung of the open interval for dur.
func (ls *ladderSearch) step(d *daemon, rep *report, ids []string, seed int64, dur time.Duration, traced bool) {
	mid := (ls.lo + ls.hi) / 2
	r := rateLadder[mid]
	// Enough step requests for a p99 with ten samples beyond it.
	dur = max(dur, time.Duration(1300/((1-snapShare)*r)*float64(time.Second)))
	ls.probes++
	t0 := readCPUTimes()
	ps := d.loadPhase(rep, ids, seed, int64(100+ls.probes), r, dur, traced)
	steal := stealSince(t0)
	ok, p99 := ps.passes()
	rep.note("ladder %6.0f/s: step p50 %6.0f us p99 %8.0f us (n=%d), tail send delay %6.0f us, steal %.1f%%, pass=%t",
		r, median(ps.steps), p99, len(ps.steps), ps.tailDelayUS, 100*steal, ok)
	switch {
	case ok:
		ls.lo, ls.loP99 = mid, p99
	case (p99 <= 2*p99LimitMS*1e3 || steal > maxSteal) && ls.retries < maxRetries:
		ls.retries++
	default:
		ls.hi, ls.hiP99 = mid, p99
	}
}

// result is max_rps: the highest passing rung, interpolated on log p99
// toward the lowest failing one, so it moves continuously with capacity.
func (ls *ladderSearch) result() (float64, error) {
	if ls.lo < 0 {
		return 0, fmt.Errorf("max_rps: even %.0f/s misses the %.0f ms p99 limit", rateLadder[0], p99LimitMS)
	}
	r := rateLadder[ls.lo]
	if ls.hi < len(rateLadder) && !math.IsInf(ls.hiP99, 1) && ls.loP99 > 0 {
		frac := math.Log(p99LimitMS*1e3/ls.loP99) / math.Log(ls.hiP99/ls.loP99)
		r += math.Min(math.Max(frac, 0), 1) * (rateLadder[ls.hi] - r)
	}
	return r, nil
}

// snapshotBody mirrors the daemon's snapshot answer.
type snapshotBody struct {
	Step  int          `json:"step"`
	PE    float64      `json:"pe"`
	Pos   [][3]float64 `json:"pos"`
	Vel   [][3]float64 `json:"vel"`
	Force [][3]float64 `json:"force"`
}

func (b snapshotBody) snapshot() core.Snapshot {
	conv := func(a [][3]float64) []vec.Vec3 {
		out := make([]vec.Vec3, len(a))
		for i, v := range a {
			out[i] = vec.New(v[0], v[1], v[2])
		}
		return out
	}
	return core.Snapshot{Step: b.Step, PE: b.PE, Pos: conv(b.Pos), Vel: conv(b.Vel), Force: conv(b.Force)}
}

func (d *daemon) snapshot(id string) (core.Snapshot, error) {
	resp, err := d.hc.Get(d.base + "/v1/sessions/" + id + "/snapshot")
	if err != nil {
		return core.Snapshot{}, err
	}
	defer resp.Body.Close()
	var b snapshotBody
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil || resp.StatusCode != http.StatusOK {
		return core.Snapshot{}, fmt.Errorf("snapshot: status %d, %v", resp.StatusCode, err)
	}
	return b.snapshot(), nil
}

// checkTrajectory compares a tenant's trajectory read over HTTP with a
// direct in-process run of the same uploaded model: the state the load
// left it in, then three more single steps, each bitwise equal.
func (d *daemon) checkTrajectory(id string, body []byte) (string, error) {
	m, err := mml.Load(bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	sys, cfg, err := m.System()
	if err != nil {
		return "", err
	}
	cfg.Threads = 1 // as the daemon runs every session
	sim, err := core.New(sys, cfg)
	if err != nil {
		return "", err
	}
	defer sim.Close()
	got, err := d.snapshot(id)
	if err != nil {
		return "", err
	}
	sim.Run(got.Step)
	for k := 0; ; k++ {
		if diff := got.Diff(sim.Snapshot()); diff != (core.StateDiff{}) || got.Step != sim.StepCount() {
			return fmt.Sprintf("HTTP trajectory deviates from the direct run at step %d: %v", got.Step, diff), nil
		}
		if k == 3 {
			return "", nil
		}
		resp, err := d.hc.Post(d.base+"/v1/sessions/"+id+"/step?n=1", "", nil)
		if err != nil {
			return "", err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Sprintf("check step: status %d", resp.StatusCode), nil
		}
		sim.Step()
		if got, err = d.snapshot(id); err != nil {
			return "", err
		}
	}
}

// runServe runs a serve-mix measurement.
func runServe(bin string, seed int64, dur time.Duration, traced bool, rep *report) error {
	bodies := make([][]byte, tenants)
	for k := range bodies {
		b, err := tenantBody(seed, k)
		if err != nil {
			return err
		}
		bodies[k] = b
	}
	var d *daemon
	var ids []string
	var setups, steals []float64
	var err error
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.stop()
		}
		c0, t0 := readCPUTimes(), time.Now()
		if d, err = startDaemon(bin); err != nil {
			return err
		}
		if ids, err = d.upload(bodies); err != nil {
			d.stop()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		steals = append(steals, stealSince(c0))
	}
	defer d.stop()
	var cleanSetups []float64
	for _, i := range cleanest(steals, (setupReps+1)/2) {
		cleanSetups = append(cleanSetups, setups[i])
	}

	// A traced run measures each rate untraced and then traced, for the
	// overhead, and takes the layer figures from the traced phases.
	// Light, heavy and saturation phases alternate, so slow machine noise
	// hits them alike; a traced run adds a traced phase of each rate per
	// round.
	specs := []rateSpec{{lightRate, dur / 6, false, false}, {heavyRate, dur / 3, true, false}, {0, dur / 4, false, false}}
	if traced {
		specs = append(specs, rateSpec{lightRate, dur / 6, false, true}, rateSpec{heavyRate, dur / 3, true, true})
	}
	// A traced run also searches max_rps, one probe after each round and
	// the rest after the last, so its probes, too, are spread over the run.
	search := newLadderSearch()
	probe := func() {
		if traced && !search.done() {
			search.step(d, rep, ids, seed, dur/20, traced)
		}
	}
	rates, err := d.measureRates(rep, ids, seed, specs, probe)
	if err != nil {
		return err
	}
	light, heavy, sat := rates[0], rates[1], rates[2]
	var tLight, tHeavy rateStats
	if traced {
		tLight, tHeavy = rates[3], rates[4]
		for !search.done() {
			probe()
		}
	}
	fail, err := d.checkTrajectory(ids[0], bodies[0])
	if err != nil {
		return fmt.Errorf("trajectory check: %w", err)
	}
	rep.attempt(fail)

	e2e := metricSet{}
	e2e.put("setup_s", median(cleanSetups), "s", fmt.Sprintf("median of %d clean of %d daemon boots + %d uploads",
		len(cleanSetups), setupReps, tenants))
	e2e.put("peak_rss_mb", peakRSSMB(d.cmd.Process.Pid), "MB", "mwserved VmHWM")
	e2e.put("throughput_per_s", sat.achieved(), "1/s", fmt.Sprintf("saturated throughput at %d requests in flight, median of %d phases",
		connections, len(sat.parts)))
	if err := requestLatencies(e2e, light, heavy); err != nil {
		return err
	}
	if !traced {
		// The serve-mix detail beyond p50_ms and p99_ms is per-layer
		// output; untraced runs only print it.
		for _, name := range sortedNames(e2e) {
			if m := e2e[name]; strings.Contains(name, "req_") {
				rep.note("%-32s %.6g %s  %s (detail)", name, m.Value, m.Unit, m.desc)
				delete(e2e, name)
			}
		}
		rep.e2e = e2e
		return nil
	}
	te2e := metricSet{}
	if err := requestLatencies(te2e, tLight, tHeavy); err != nil {
		return err
	}
	rep.overhead(e2e, te2e)
	maxRPS, err := search.result()
	if err != nil {
		return err
	}
	rep.metric("serve.max_rps", maxRPS, "1/s", fmt.Sprintf("ladder rate at step p99 <= %.0f ms", p99LimitMS))
	for _, name := range sortedNames(te2e) {
		if strings.Contains(name, "req_") {
			m := te2e[name]
			rep.metric(name, m.Value, m.Unit, m.desc)
		}
	}
	if err := serveLayers(rep, tLight.all, tHeavy.all); err != nil {
		return err
	}
	// The engine layers of serve-mix: one tenant's system stepped
	// in-process exactly as a session steps it.
	r, err := measureEngine(tenantEngine, seed, 2*time.Second, true, rep)
	if err != nil {
		return err
	}
	return engineLayers(rep, tenantEngine, 1, r)
}

// rounds is how many phases each rate is measured in. The request
// latencies are taken from the faster half of the phases (stepQuantile):
// latency noise on a shared machine comes as slow phases here and there,
// so the faster half tracks the program and not its neighbours, while a
// change of the program moves every phase. The saturated throughput varies
// both ways from phase to phase, and its median over all phases is the
// steadier figure.
const rounds = 10

// rateSpec is one rate to measure (0: closed-loop saturation): total time
// over all rounds, whether each phase must hold enough step requests for
// its own p99, and whether its phases are traced.
type rateSpec struct {
	rate     float64
	dur      time.Duration
	phaseP99 bool
	traced   bool
}

func (sp rateSpec) String() string {
	if sp.rate == 0 {
		return fmt.Sprintf("saturated traced=%t", sp.traced)
	}
	return fmt.Sprintf("rate %.0f/s traced=%t", sp.rate, sp.traced)
}

// rateStats is one rate's phases, also pooled in all.
type rateStats struct {
	parts []phaseStats
	all   phaseStats
}

// achieved is the median over the phases of their achieved rates.
func (rs rateStats) achieved() float64 {
	var xs []float64
	for _, ps := range rs.parts {
		xs = append(xs, ps.achieve)
	}
	return median(xs)
}

// measureRates measures each spec in rounds phases, one phase per spec per
// round, each phase with its own schedule, and calls afterRound between
// rounds. Every phase's requests count as attempts. An open-loop rate
// whose generator woke up later than the bounds makes the run invalid. The achieved
// open-loop rate is only reported: it also drops when the daemon stalls,
// which is a result, not a fault of the generator.
func (d *daemon) measureRates(rep *report, ids []string, seed int64, specs []rateSpec, afterRound func()) ([]rateStats, error) {
	phases := make([][]phaseStats, len(specs))
	steals := make([][]float64, len(specs))
	for r := 0; r < rounds; r++ {
		if r > 0 {
			afterRound()
		}
		for i, sp := range specs {
			dur := sp.dur / rounds
			if sp.phaseP99 {
				dur = max(dur, time.Duration(1300/((1-snapShare)*sp.rate)*float64(time.Second)))
			}
			t0 := readCPUTimes()
			phases[i] = append(phases[i], d.loadPhase(rep, ids, seed, int64(10*(i+1)+r), sp.rate, dur, sp.traced))
			steals[i] = append(steals[i], stealSince(t0))
		}
	}
	out := make([]rateStats, len(specs))
	for i, sp := range specs {
		rs := &out[i]
		var offered, achieved []float64
		var tails []string
		for _, ps := range phases[i] {
			rs.parts = append(rs.parts, ps)
			a := &rs.all
			a.steps = append(a.steps, ps.steps...)
			a.snaps = append(a.snaps, ps.snaps...)
			a.late = append(a.late, ps.late...)
			a.failures = append(a.failures, ps.failures...)
			a.samples = append(a.samples, ps.samples...)
			offered = append(offered, ps.offered)
			achieved = append(achieved, ps.achieve)
			switch p, err := percentile(ps.steps, 0.99); {
			case sp.rate == 0:
				tails = append(tails, fmt.Sprintf("%.0f", ps.achieve))
			case err == nil:
				tails = append(tails, fmt.Sprintf("%.0f/%.0f", median(ps.steps), p.Value))
			default:
				tails = append(tails, fmt.Sprintf("%.0f", median(ps.steps)))
			}
		}
		what := "step p50[/p99] us"
		if sp.rate == 0 {
			what = "answers/s"
		}
		rep.note("%v: %d phases (%.1f%% of CPU time stolen over all, %.1f%% at most), %s: %s",
			sp, len(rs.parts), 100*mean(steals[i]), 100*slices.Max(steals[i]), what, strings.Join(tails, " "))
		if sp.rate == 0 {
			continue
		}
		late, err := percentile(rs.all.late, 0.99)
		if err != nil {
			return nil, fmt.Errorf("generator lateness at %.0f/s: %w", sp.rate, err)
		}
		rep.note("%v: offered %.1f/s, achieved %.1f/s (phase medians), generator late p50 %.0f us p99 %.0f us (n=%d)",
			sp, median(offered), median(achieved), median(rs.all.late), late.Value, late.N)
		if median(rs.all.late) > lateP50Bound || late.Value > lateP99Bound {
			return nil, fmt.Errorf("run invalid: generator lateness at %.0f/s beyond p50 %d us or p99 %d us",
				sp.rate, lateP50Bound, lateP99Bound)
		}
	}
	return out, nil
}

// stepQuantile is the step-request q-quantile of the faster half of the
// phases: the half whose own q-quantiles are the lowest, their samples
// pooled, so the figure rests on five phases' samples instead of one's.
func (rs rateStats) stepQuantile(q float64) (pct, error) {
	type phaseQ struct {
		q     float64
		steps []float64
	}
	var phs []phaseQ
	for _, ps := range rs.parts {
		p, err := percentile(ps.steps, q)
		if err != nil {
			return pct{}, err
		}
		phs = append(phs, phaseQ{p.Value, ps.steps})
	}
	sort.Slice(phs, func(a, b int) bool { return phs[a].q < phs[b].q })
	var pool []float64
	for _, ph := range phs[:(len(phs)+1)/2] {
		pool = append(pool, ph.steps...)
	}
	return percentile(pool, q)
}

// requestLatencies puts the request latency percentiles of a light and a
// heavy rate into m: p50_ms and p99_ms are the end-to-end pair, the rest
// the serve-mix detail reported by traced runs.
func requestLatencies(m metricSet, light, heavy rateStats) error {
	for _, x := range []struct {
		name string
		rs   rateStats
		q    float64
		desc string
	}{
		{"p50_ms", heavy, 0.5, "step_req_p50_ms.heavy"},
		{"p99_ms", heavy, 0.99, "step_req_p99_ms.heavy"},
	} {
		p, err := x.rs.stepQuantile(x.q)
		if err != nil {
			return fmt.Errorf("%s: %w", x.name, err)
		}
		m.put(x.name, p.Value/1e3, "ms", fmt.Sprintf("%s, faster half of %d phases, n=%d", x.desc, len(x.rs.parts), p.N))
	}
	for _, x := range []struct {
		name string
		xs   []float64
		q    float64
		desc string
	}{
		{"step_req_p50_ms.light", light.all.steps, 0.5, ""},
		{"step_req_p99_ms.light", light.all.steps, 0.99, ""},
		{"snapshot_req_p99_ms.heavy", heavy.all.snaps, 0.99, ""},
	} {
		p, err := percentile(x.xs, x.q)
		if err != nil {
			return fmt.Errorf("%s: %w", x.name, err)
		}
		m.put(x.name, p.Value/1e3, "ms", fmt.Sprintf("%sn=%d", x.desc, p.N))
	}
	return nil
}

// serveLayers emits the serve layer figures from the traced phases'
// step answers.
func serveLayers(rep *report, light, heavy phaseStats) error {
	var ingress, queue, batch, compute, size, snapKB []float64
	for _, s := range light.samples {
		if s.failure == "" && !s.snapshot {
			ingress = append(ingress, s.e2eUS-s.step.WallUS)
		}
	}
	for _, s := range heavy.samples {
		switch {
		case s.failure != "":
		case s.snapshot:
			snapKB = append(snapKB, float64(s.bytes)/1024)
		default:
			queue = append(queue, s.step.QueueWaitUS)
			batch = append(batch, s.step.BatchWaitUS)
			compute = append(compute, s.step.ComputeUS)
			size = append(size, float64(s.step.BatchSize))
		}
	}
	for _, m := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"serve.ingress_us.p50", ingress, 0.5},
		{"serve.queue_wait_us.p99", queue, 0.99},
		{"serve.batch_wait_us.p99", batch, 0.99},
		{"serve.compute_us.p50", compute, 0.5},
		{"gen.late_us.p99", heavy.late, 0.99},
	} {
		p, err := percentile(m.xs, m.q)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		rep.metric(m.name, p.Value, "us", fmt.Sprintf("n=%d", p.N))
	}
	rep.metric("serve.batch_size.mean", mean(size), "count", "heavy phase")
	rep.metric("serve.snapshot_kb", mean(snapKB), "KB", "mean snapshot answer")
	var shed float64
	for _, ps := range []phaseStats{light, heavy} {
		for _, f := range ps.failures {
			if f == "status 429" {
				shed++
			}
		}
	}
	rep.metric("serve.shed_429", shed, "count", "light + heavy phases")
	return nil
}
