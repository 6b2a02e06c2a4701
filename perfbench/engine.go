package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"mw/internal/atom"
	"mw/internal/core"
	"mw/internal/telemetry"
	"mw/internal/verify"
)

// engineWorkload is one closed-loop mwsim workload. A run is a sequence of
// fixed-length episodes, each on a fresh seeded system, so every run covers
// the same physical regime however fast the engine steps.
type engineWorkload struct {
	build  func(seed int64, episode int) *atom.System
	params core.Config
	config func(params core.Config, threads int) core.Config
	// threads is the worker count (0 = one per CPU).
	threads int
	// steps is the episode length.
	steps int
	// verifyName names the verify workload whose differential-matrix
	// tolerance the reference-prefix check applies.
	verifyName string
	// driftBound bounds |ΔE/E| over one episode.
	driftBound float64
}

var engineWorkloads = map[string]engineWorkload{
	// 400 steps: the projectile hits the block near step 200, so an episode
	// holds the approach, the impact and the start of the cascade.
	"al1000": {build: buildAl1000, params: al1000Config, config: benchConfig, steps: 400,
		verifyName: "Al-1000", driftBound: 1e-3},
	"salt": {build: buildSalt, params: saltConfig, config: benchConfig, steps: 60,
		verifyName: "salt", driftBound: 1e-3},
}

// tenantEngine is the engine work behind serve-mix: one tenant's system
// stepped in-process under the configuration the daemon gives a session.
var tenantEngine = engineWorkload{build: buildTenant, params: tenantConfig, config: sessionConfig,
	threads: 1, steps: 200, driftBound: 1e-3}

// prefixSteps is the length of the reference-prefix comparison.
const prefixSteps = 16

// benchConfig is the engine configuration under test: the Morton reorder
// hot path with guided cell-block chunks and the cluster-pair LJ format, so
// the engine auto-picks its fastest LJ rung.
func benchConfig(p core.Config, threads int) core.Config {
	c := p
	c.Threads = threads
	c.Reorder = true
	c.Partition = core.PartitionGuided
	c.Cluster = true
	return c
}

// sessionConfig is the configuration mwserved gives every session: the
// uploaded parameters on one thread.
func sessionConfig(p core.Config, _ int) core.Config {
	c := p
	c.Threads = 1
	return c
}

// withRecorder attaches a fresh telemetry recorder, as mwsim and mwserved
// always do; the caller releases it.
func withRecorder(c core.Config) (core.Config, *telemetry.Recorder) {
	rec := telemetry.NewRecorder(c.Threads, core.PhaseNames())
	c.Telemetry = rec
	return c, rec
}

// stepTrace is the traced run's core.Instrument: it folds each phase's wall
// and per-worker busy time into the current step's totals.
type stepTrace struct {
	phaseUS    [core.NumPhases]float64
	dispatchUS float64 // Σ phase wall − slowest worker busy
	busyUS     float64 // Σ worker busy
	capUS      float64 // Σ phase wall × workers
	forceImb   float64 // force phase max/mean worker busy
}

func (t *stepTrace) PhaseDone(_ int, ph core.Phase, wall time.Duration, busy []time.Duration) {
	w := micros(wall)
	t.phaseUS[ph] += w
	var mx, sum float64
	for _, b := range busy {
		bu := micros(b)
		sum += bu
		mx = math.Max(mx, bu)
	}
	t.dispatchUS += w - mx
	t.busyUS += sum
	t.capUS += w * float64(len(busy))
	if ph == core.PhaseForce && sum > 0 {
		t.forceImb = mx / (sum / float64(len(busy)))
	}
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerSamples accumulates the per-step layer figures of every traced
// episode, scored or not (steal.go), so the phase figures and the step
// times they reconcile to cover the same steps.
type layerSamples struct {
	phaseUS          [core.NumPhases][]float64
	forceRebuildUS   []float64
	dispatchUS       []float64
	forceImb         []float64
	busyUS, capUS    float64
	stepUS, phasesUS float64   // totals, for the unattributed share
	stepTimes        []float64 // µs, every traced step, for the reconciliation
	steps            int
	rebuilds         int
	reorders         int
	pairs            []float64 // stored LJ pairs per atom at episode end
	contended, deq   int64
	rt               runtimeDelta
	captured         *atom.System // a mid-episode state for the kernel probes
}

// episodeResult is one episode's outcome.
type episodeResult struct {
	setupS  float64
	stepUS  []float64
	failure string // empty when the end state passed its checks
}

// runEpisode builds episode ep's system, times core.New as set-up, then
// steps it closed-loop, timing every step. With ls non-nil the engine gets
// the stepTrace instrument and the layer figures are recorded into ls.
func runEpisode(w engineWorkload, seed int64, ep, threads int, ls *layerSamples) (episodeResult, error) {
	var res episodeResult
	t0 := time.Now()
	sys := w.build(seed, ep)
	cfg, rec := withRecorder(w.config(w.params, threads))
	var tr stepTrace
	if ls != nil {
		cfg.Instrument = &tr
	}
	sim, err := core.New(sys, cfg)
	res.setupS = time.Since(t0).Seconds()
	defer rec.Release()
	if err != nil {
		return res, fmt.Errorf("episode %d: %w", ep, err)
	}
	defer sim.Close()

	e0 := sim.TotalEnergy()
	res.stepUS = make([]float64, 0, w.steps)
	// Counts start after core.New, whose bootstrap force evaluation
	// rebuilds (and may reorder) once.
	rebuilds0, reorders0 := sim.Rebuilds(), sim.Reorders()
	var rt0 runtimeSample
	if ls != nil {
		rt0 = readRuntime()
	}
	for i := 0; i < w.steps; i++ {
		tr = stepTrace{}
		rebuilds := sim.Rebuilds()
		t := time.Now()
		sim.Step()
		us := micros(time.Since(t))
		res.stepUS = append(res.stepUS, us)
		if ls == nil {
			continue
		}
		var sum float64
		for ph := range tr.phaseUS {
			ls.phaseUS[ph] = append(ls.phaseUS[ph], tr.phaseUS[ph])
			sum += tr.phaseUS[ph]
		}
		if sim.Rebuilds() != rebuilds {
			ls.forceRebuildUS = append(ls.forceRebuildUS, tr.phaseUS[core.PhaseForce])
		}
		ls.dispatchUS = append(ls.dispatchUS, tr.dispatchUS)
		if tr.forceImb > 0 {
			ls.forceImb = append(ls.forceImb, tr.forceImb)
		}
		ls.busyUS += tr.busyUS
		ls.capUS += tr.capUS
		ls.stepUS += us
		ls.stepTimes = append(ls.stepTimes, us)
		ls.phasesUS += sum
		if ls.captured == nil && i == w.steps/2 {
			ls.captured = sim.Sys.Clone()
		}
	}
	if ls != nil {
		ls.rt.add(rt0, readRuntime())
		ls.steps += w.steps
		ls.rebuilds += sim.Rebuilds() - rebuilds0
		ls.reorders += sim.Reorders() - reorders0
		ls.pairs = append(ls.pairs, float64(sim.LJPairs())/float64(sys.N()))
		_, deq, cont := sim.QueueStats()
		ls.deq += deq
		ls.contended += cont
	}

	e1 := sim.TotalEnergy()
	switch drift := math.Abs((e1 - e0) / e0); {
	case !finiteState(sim.Sys) || math.IsNaN(e1) || math.IsInf(e1, 0):
		res.failure = fmt.Sprintf("episode %d: non-finite state after %d steps", ep, w.steps)
	case !(drift <= w.driftBound):
		res.failure = fmt.Sprintf("episode %d: |ΔE/E| = %.3g exceeds %.0e", ep, drift, w.driftBound)
	}
	return res, nil
}

// checkPrefix compares the first prefixSteps steps of the benchmark's
// engine configuration against the serial reference trajectory at the
// differential-matrix tolerance.
func checkPrefix(w engineWorkload, seed int64, threads int) (string, error) {
	vw := verify.WorkloadByName(w.verifyName)
	if vw == nil {
		return "", fmt.Errorf("no verify workload %q", w.verifyName)
	}
	base := w.build(seed, 0)
	ref, err := verify.ReferenceTrajectory(base, verify.Reference().Apply(w.params), prefixSteps)
	if err != nil {
		return "", fmt.Errorf("reference trajectory: %w", err)
	}
	cfg, rec := withRecorder(w.config(w.params, threads))
	defer rec.Release()
	d, err := verify.Differential(base, cfg, ref)
	if err != nil {
		return "", fmt.Errorf("differential: %w", err)
	}
	if err := vw.Tol.Check(d.Worst); err != nil {
		return fmt.Sprintf("reference prefix (%d steps): %v", prefixSteps, err), nil
	}
	return "", nil
}

// engineRun accumulates one kind of episode (plain, traced or serial).
type engineRun struct {
	setupS []float64
	stepUS []float64 // in step order
	epRate []float64 // steps per second of each episode
	busyUS float64   // Σ step time
}

func (r *engineRun) add(res episodeResult) {
	t := sum(res.stepUS)
	r.setupS = append(r.setupS, res.setupS)
	r.stepUS = append(r.stepUS, res.stepUS...)
	r.epRate = append(r.epRate, float64(len(res.stepUS))/(t/1e6))
	r.busyUS += t
}

// maxBlocks bounds how many consecutive blocks an engine run's steps are
// cut into for the p99: every block holds at least 1000 steps, enough for
// its own p99, and p99_ms is the median of the blocks' p99s, so a slow
// stretch of the machine moves it by at most its share of the blocks.
const maxBlocks = 25

// e2e is the end-to-end figure set of an engine run (all but peak RSS,
// which belongs to the whole process). A percentile with too few samples
// is an error, unless partial is set: the parts of a traced run only feed
// the overhead comparison, which then leaves that percentile out.
func (r *engineRun) e2e(partial bool) (metricSet, error) {
	m := metricSet{}
	m.put("setup_s", median(r.setupS), "s", fmt.Sprintf("median of %d system builds + core.New", len(r.setupS)))
	// Steps per second is the median over episodes, for the same reason.
	m.put("throughput_per_s", median(r.epRate), "1/s", fmt.Sprintf("steps_per_s, median of %d episodes", len(r.epRate)))
	n := len(r.stepUS)
	k := max(1, min(maxBlocks, n/(100*minBeyond)))
	var p99s []float64
	var p99Err error
	for b := 0; b < k && p99Err == nil; b++ {
		var p pct
		p, p99Err = percentile(append([]float64(nil), r.stepUS[b*n/k:(b+1)*n/k]...), 0.99)
		p99s = append(p99s, p.Value)
	}
	switch {
	case p99Err == nil:
		m.put("p99_ms", median(p99s)/1e3, "ms", fmt.Sprintf("step_p99, median of %d blocks, n=%d", k, n))
	case !partial:
		return nil, fmt.Errorf("p99_ms: %w", p99Err)
	}
	p50, err := percentile(r.stepUS, 0.5)
	if err != nil {
		return nil, fmt.Errorf("p50_ms: %w", err)
	}
	m.put("p50_ms", p50.Value/1e3, "ms", fmt.Sprintf("step_p50, n=%d", p50.N))
	return m, nil
}

// engineRuns is the outcome of an engine measurement: plain episodes,
// and in a traced run also traced and one-thread episodes.
type engineRuns struct {
	plain, traced, serial engineRun
	layers                layerSamples
}

// measureEngine steps episodes until dur has passed, counting each one's
// check into rep. Traced measurements rotate plain, traced and one-thread
// episodes, so overhead and speedup are measured under the same conditions.
// Each kind's figures come from its clean episodes (steal.go), or its
// cleanest half when fewer are clean.
func measureEngine(w engineWorkload, seed int64, dur time.Duration, traced bool, rep *report) (*engineRuns, error) {
	threads := w.threads
	if threads == 0 {
		threads = runtime.NumCPU()
	}
	var r engineRuns
	kinds := [...]struct {
		name string
		run  *engineRun
		eps  []episodeResult
		stl  []float64
	}{{name: "plain", run: &r.plain}, {name: "traced", run: &r.traced}, {name: "one-thread", run: &r.serial}}
	start := time.Now()
	for ep := 0; time.Since(start) < dur || (traced && ep < 3); ep++ {
		k, th, ls := 0, threads, (*layerSamples)(nil)
		if traced {
			switch k = ep % 3; k {
			case 1:
				ls = &r.layers
			case 2:
				th = 1
			}
		}
		t0 := readCPUTimes()
		res, err := runEpisode(w, seed, ep, th, ls)
		if err != nil {
			return nil, err
		}
		kinds[k].eps = append(kinds[k].eps, res)
		kinds[k].stl = append(kinds[k].stl, stealSince(t0))
		rep.attempt(res.failure)
	}
	for _, k := range kinds {
		if len(k.eps) == 0 {
			continue
		}
		keep := cleanest(k.stl, (len(k.eps)+1)/2)
		for _, i := range keep {
			k.run.add(k.eps[i])
		}
		rep.note("%s episodes: %d scored of %d (%.1f%% of CPU time stolen over all)",
			k.name, len(keep), len(k.eps), 100*mean(k.stl))
	}
	return &r, nil
}

// runEngine runs an al1000 or salt measurement.
func runEngine(name string, seed int64, dur time.Duration, traced bool, rep *report) error {
	w := engineWorkloads[name]
	threads := runtime.NumCPU()
	fail, err := checkPrefix(w, seed, threads)
	if err != nil {
		return err
	}
	rep.attempt(fail)
	r, err := measureEngine(w, seed, dur, traced, rep)
	if err != nil {
		return err
	}
	e2e, err := r.plain.e2e(traced)
	if err != nil {
		return err
	}
	e2e.put("peak_rss_mb", peakRSSMB(0), "MB", "benchmark process VmHWM")
	if !traced {
		rep.e2e = e2e
		return nil
	}
	te2e, err := r.traced.e2e(true)
	if err != nil {
		return err
	}
	rep.overhead(e2e, te2e)
	rep.notExercised("serve.", "gen.", "step_req_", "snapshot_req_")
	return engineLayers(rep, w, threads, r)
}

// engineLayers emits the traced run's per-layer metrics.
func engineLayers(rep *report, w engineWorkload, threads int, r *engineRuns) error {
	ls, plain, serial := &r.layers, r.plain, r.serial
	var sumP50 float64
	for ph := core.Phase(0); ph < core.NumPhases; ph++ {
		p, err := percentile(ls.phaseUS[ph], 0.5)
		if err != nil {
			return err
		}
		sumP50 += p.Value
		rep.metric("core."+phaseKey(ph)+"_us", p.Value, "us", fmt.Sprintf("phase p50, n=%d", p.N))
	}
	stepP50, err := percentile(ls.stepTimes, 0.5)
	if err != nil {
		return err
	}
	rep.note("reconcile: Σ phase p50 = %.1f us vs traced step p50 = %.1f us (%+.1f%%)",
		sumP50, stepP50.Value, 100*(stepP50.Value-sumP50)/stepP50.Value)
	if p, err := percentile(ls.forceRebuildUS, 0.5); err == nil {
		rep.metric("core.force_rebuild_us", p.Value, "us", fmt.Sprintf("force phase p50 on rebuild steps, n=%d", p.N))
	} else {
		return fmt.Errorf("core.force_rebuild_us: %w", err)
	}
	rep.metric("core.unattributed_pct", 100*(ls.stepUS-ls.phasesUS)/ls.stepUS, "%", "step wall outside any phase, share of total")
	kstep := float64(ls.steps) / 1000
	rep.metric("cells.rebuilds_per_kstep", float64(ls.rebuilds)/kstep, "count", "")
	rep.metric("atom.reorders_per_kstep", float64(ls.reorders)/kstep, "count", "")
	rep.metric("cells.pairs_per_atom", mean(ls.pairs), "count", "stored LJ pairs per atom at episode end")
	d, err := percentile(ls.dispatchUS, 0.5)
	if err != nil {
		return fmt.Errorf("pool.dispatch_us: %w", err)
	}
	rep.metric("pool.dispatch_us", d.Value, "us", fmt.Sprintf("per-step p50, n=%d", d.N))
	rep.metric("pool.idle_frac", 1-ls.busyUS/ls.capUS, "ratio", "")
	imb := 1.0
	if len(ls.forceImb) > 0 {
		imb = median(ls.forceImb)
	}
	rep.metric("pool.force_imbalance", imb, "ratio", "force phase max/mean worker busy, median step")
	frac := 0.0
	if ls.deq > 0 {
		frac = float64(ls.contended) / float64(ls.deq)
	}
	rep.metric("pool.queue_contended_frac", frac, "ratio", "contended queue locks per dequeue")
	serialMean := serial.busyUS / float64(len(serial.stepUS))
	plainMean := plain.busyUS / float64(len(plain.stepUS))
	rep.metric("pool.speedup", serialMean/plainMean, "ratio",
		fmt.Sprintf("mean step, 1 vs %d threads, %d vs %d steps", threads, len(serial.stepUS), len(plain.stepUS)))
	if err := ls.rt.emit(rep, ls.steps); err != nil {
		return err
	}
	return probeLayers(rep, ls.captured, w.config(w.params, threads))
}

func phaseKey(ph core.Phase) string {
	if ph == core.PhaseNeighborCheck {
		return "neighbor_check"
	}
	return ph.String()
}

// runtimeSample is a read of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocs  uint64
	gcPause float64 // CPU-seconds spent in GC pauses
	sched   *metrics.Float64Histogram
}

var runtimeNames = []string{"/gc/heap/allocs:objects", "/cpu/classes/gc/pause:cpu-seconds", "/sched/latencies:seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{allocs: s[0].Value.Uint64(), gcPause: s[1].Value.Float64(), sched: s[2].Value.Float64Histogram()}
}

// runtimeDelta accumulates counter differences over the traced step loops.
type runtimeDelta struct {
	allocs  uint64
	gcPause float64
	buckets []float64
	counts  []uint64
}

func (d *runtimeDelta) add(a, b runtimeSample) {
	d.allocs += b.allocs - a.allocs
	d.gcPause += b.gcPause - a.gcPause
	if d.counts == nil {
		d.buckets = b.sched.Buckets
		d.counts = make([]uint64, len(b.sched.Counts))
	}
	for i := range d.counts {
		d.counts[i] += b.sched.Counts[i] - a.sched.Counts[i]
	}
}

// emit reports allocations and GC pause per step and the p99 goroutine
// scheduling latency. The runtime keeps scheduling latency as a histogram,
// so the p99 is the upper edge of the bucket holding it.
func (d *runtimeDelta) emit(rep *report, steps int) error {
	rep.metric("runtime.allocs_per_step", float64(d.allocs)/float64(steps), "count", "")
	pauseUS := d.gcPause / float64(runtime.GOMAXPROCS(0)) * 1e6
	rep.metric("runtime.gc_pause_us_per_kstep", pauseUS/(float64(steps)/1000), "us", "stop-the-world GC wall per 1000 steps")
	var total uint64
	for _, c := range d.counts {
		total += c
	}
	if float64(total)*0.01 < minBeyond {
		// A one-thread engine hands no work between goroutines, so the
		// scheduler sees too few events for a p99.
		rep.metric("runtime.sched_lat_p99_us", 0, "us",
			fmt.Sprintf("not exercised: %d scheduling events, a p99 needs %d", total, 100*minBeyond))
		return nil
	}
	target := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range d.counts {
		cum += c
		if cum >= target {
			edge := d.buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = d.buckets[i]
			}
			rep.metric("runtime.sched_lat_p99_us", edge*1e6, "us", fmt.Sprintf("bucket upper edge, n=%d", total))
			return nil
		}
	}
	return fmt.Errorf("runtime.sched_lat_p99_us: histogram walk fell off the end")
}
