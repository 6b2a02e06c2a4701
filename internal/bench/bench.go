// Package bench is the benchmark-regression harness gating the cell-ordered
// hot path: it measures the LJ force kernels and whole engine steps
// (ns/op, allocs/op, bytes/op) plus per-phase latency percentiles from the
// telemetry histograms, serializes everything as a JSON report
// (BENCH_<n>.json via `make bench-json`), and diffs reports within a
// tolerance so a PR that slows a kernel or adds a hot-loop allocation fails
// visibly instead of silently (`mwbench benchdiff`).
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"mw/internal/atom"
	"mw/internal/cells"
	"mw/internal/core"
	"mw/internal/forces"
	"mw/internal/telemetry"
	"mw/internal/vec"
	"mw/internal/workload"
)

// Schema identifies the report layout; bump on incompatible changes.
const Schema = 1

// Result is one measured benchmark.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// NsPerPair is NsPerOp over the pairs one op evaluates, set on the
	// all-pairs Coulomb rows.
	NsPerPair float64 `json:"ns_per_pair,omitempty"`
}

// PhasePercentiles is one engine phase's latency distribution, read from the
// telemetry recorder's ring histograms after a timed run.
type PhasePercentiles struct {
	Phase     string  `json:"phase"`
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
}

// WorkloadPhases couples a workload + engine configuration with its phase
// percentiles.
type WorkloadPhases struct {
	Workload string             `json:"workload"`
	Config   string             `json:"config"`
	Steps    int                `json:"steps"`
	Phases   []PhasePercentiles `json:"phases"`
}

// Report is the serialized output of one harness run.
type Report struct {
	Schema    int    `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`

	Benchmarks []Result         `json:"benchmarks"`
	Phases     []WorkloadPhases `json:"phases"`

	// Serve is the service-level tail-latency section (mwserved driven by
	// the in-process load sweep). Its p99/throughput numbers also appear as
	// serve/* rows in Benchmarks so Diff gates them like kernel timings.
	// Absent when the harness ran with SkipServe.
	Serve *ServeSection `json:"serve,omitempty"`

	// KernelSpeedup is the headline §V-A number: the seed half-list LJ kernel
	// (exclusion check, file-ordered atoms) over the cell-ordered one
	// (exclusion-free, Morton-ordered atoms) on Al-1000.
	KernelSpeedup float64 `json:"kernel_speedup"`
}

// Options tunes a harness run; the zero value uses the defaults the committed
// baselines were generated with.
type Options struct {
	// BenchTime is the minimum measuring window per benchmark (default 500ms).
	BenchTime time.Duration
	// Steps is the length of the phase-percentile runs (default 150).
	Steps int

	// ServeSessions is the tenant-fleet size for the service sweep
	// (default 1024 — above the 1000-session acceptance floor).
	ServeSessions int
	// ServeConcurrency lists the client concurrency levels (default 64, 512).
	ServeConcurrency []int
	// ServeNRuns is runs per concurrency level (default 2).
	ServeNRuns int
	// ServeStepsPerReq is engine steps per step request (default 1).
	ServeStepsPerReq int
	// ServeWorkload names the per-session workload (default Al-1000).
	ServeWorkload string
	// SkipServe omits the service section entirely.
	SkipServe bool
}

func (o Options) withDefaults() Options {
	if o.BenchTime <= 0 {
		o.BenchTime = 500 * time.Millisecond
	}
	if o.Steps <= 0 {
		o.Steps = 150
	}
	if o.ServeSessions <= 0 {
		o.ServeSessions = 1024
	}
	if len(o.ServeConcurrency) == 0 {
		o.ServeConcurrency = []int{64, 512}
	}
	if o.ServeNRuns <= 0 {
		o.ServeNRuns = 2
	}
	if o.ServeStepsPerReq <= 0 {
		o.ServeStepsPerReq = 1
	}
	if o.ServeWorkload == "" {
		o.ServeWorkload = "Al-1000"
	}
	return o
}

// nsPerOp times f over at least the measuring window (and at least 3 runs
// after one warmup) and returns mean nanoseconds per call.
func nsPerOp(window time.Duration, f func()) float64 {
	f() // warmup
	iters := 0
	start := time.Now()
	for time.Since(start) < window || iters < 3 {
		f()
		iters++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

// bytesPerOp measures mean heap bytes allocated per call.
func bytesPerOp(f func()) float64 {
	return perOp(f, func(m *runtime.MemStats) uint64 { return m.TotalAlloc })
}

// allocsPerOp measures mean heap allocations per call. It is
// testing.AllocsPerRun without importing the testing package into a
// non-test binary (mwbench links this package).
func allocsPerOp(f func()) float64 {
	return perOp(f, func(m *runtime.MemStats) uint64 { return m.Mallocs })
}

// perOp returns the per-call growth of a MemStats counter over 5 calls,
// minimized over 3 trials. The counters are process-wide, so an allocation
// by some other goroutine while f runs is charged to f; such noise comes
// and goes between trials, while an allocation f itself makes recurs in
// every trial and survives the minimum.
func perOp(f func(), counter func(*runtime.MemStats) uint64) float64 {
	const trials, n = 3, 5
	best := -1.0
	for t := 0; t < trials; t++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			f()
		}
		runtime.ReadMemStats(&m1)
		if v := float64(counter(&m1)-counter(&m0)) / n; best < 0 || v < best {
			best = v
		}
	}
	return best
}

func measure(name string, window time.Duration, f func()) Result {
	return Result{
		Name:        name,
		NsPerOp:     nsPerOp(window, f),
		AllocsPerOp: allocsPerOp(f),
		BytesPerOp:  bytesPerOp(f),
	}
}

// mortonOrder computes the gather permutation sorting s into Morton cell
// order under g (the same stable counting sort the engine's reorder pass
// uses, reimplemented here so the harness can prepare a cell-ordered system
// without driving the whole engine).
func mortonOrder(g *cells.Grid, s *atom.System) []int32 {
	g.Assign(s)
	ranks := g.MortonRanks()
	n := s.N()
	nc := g.NumCells()
	keys := make([]int32, n)
	counts := make([]int32, nc+1)
	for i := 0; i < n; i++ {
		k := ranks[g.CellIndexOf(s.Pos[i])]
		keys[i] = k
		counts[k+1]++
	}
	for r := 0; r < nc; r++ {
		counts[r+1] += counts[r]
	}
	order := make([]int32, n)
	for i := 0; i < n; i++ {
		order[counts[keys[i]]] = int32(i)
		counts[keys[i]]++
	}
	return order
}

// kernelSetup holds one prepared Al-1000 instance for kernel benchmarks:
// the classic half range list plus the Verlet cluster-pair state (list,
// packed SoA coordinates, SIMD scratch) over the same atoms.
type kernelSetup struct {
	sys *atom.System
	lj  *forces.LJ
	rl  cells.RangeList
	cl  cells.ClusterList
	cc  cells.ClusterCoords
	scr forces.ClusterScratch
	f   []vec.Vec3
}

func newKernelSetup(morton bool) (*kernelSetup, error) {
	b := workload.Al1000()
	sys := b.Sys
	rng := b.Cfg.LJCutoff + b.Cfg.Skin
	g := cells.NewGrid(sys.Box, rng)
	if morton {
		order := mortonOrder(g, sys)
		var r atom.Reorderer
		if err := r.Apply(sys, order); err != nil {
			return nil, err
		}
	}
	g.Assign(sys)
	ks := &kernelSetup{
		sys: sys,
		lj:  forces.NewLJ(sys.Elements, b.Cfg.LJCutoff),
		f:   make([]vec.Vec3, sys.N()),
	}
	g.BuildRange(sys, rng, 0, sys.N(), &ks.rl)
	g.BuildClusterRange(sys, rng, 0, sys.N(), &ks.cl)
	ks.cc.Pack(sys)
	return ks, nil
}

// coulombSetup holds the salt ions for the Coulomb kernel rows: the
// charged list, the packed SoA copy and one worker's scratch for the packed
// kernel, and the pair count one full evaluation covers.
type coulombSetup struct {
	sys     *atom.System
	coul    forces.Coulomb
	charged []int32
	cc      forces.CoulombCoords
	scr     []forces.CoulombScratch
	f       []vec.Vec3
	pairs   float64
}

func newCoulombSetup() *coulombSetup {
	b := workload.Salt()
	soft := b.Cfg.CoulombSoftening
	if soft == 0 {
		soft = 0.05 // the engine default
	}
	charged := b.Sys.ChargedIndices()
	n := float64(len(charged))
	return &coulombSetup{
		sys:     b.Sys,
		coul:    forces.Coulomb{Softening: soft},
		charged: charged,
		scr:     make([]forces.CoulombScratch, 1),
		f:       make([]vec.Vec3, b.Sys.N()),
		pairs:   n * (n - 1) / 2,
	}
}

// measurePairs is measure plus the per-pair normalization.
func measurePairs(name string, window time.Duration, pairs float64, f func()) Result {
	r := measure(name, window, f)
	r.NsPerPair = r.NsPerOp / pairs
	return r
}

// Run executes the full harness and returns the report.
func Run(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	rep := &Report{
		Schema:    Schema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}

	// LJ kernel benchmarks on Al-1000 (Excl.Len() == 0, so the exclusion-free
	// kernels are the ones the engine actually selects for it).
	seed, err := newKernelSetup(false)
	if err != nil {
		return nil, err
	}
	sorted, err := newKernelSetup(true)
	if err != nil {
		return nil, err
	}
	rep.Benchmarks = append(rep.Benchmarks,
		measure("kernel/lj-halflist/seed", opts.BenchTime, func() {
			seed.lj.AccumulateRangeList(seed.sys, &seed.rl, seed.f)
		}),
		measure("kernel/lj-halflist-noexcl/seed-order", opts.BenchTime, func() {
			seed.lj.AccumulateRangeListNoExcl(seed.sys, &seed.rl, seed.f)
		}),
		measure("kernel/lj-halflist-noexcl/morton-order", opts.BenchTime, func() {
			sorted.lj.AccumulateRangeListNoExcl(sorted.sys, &sorted.rl, sorted.f)
		}),
		measure("kernel/lj-halflist-fast/morton-order", opts.BenchTime, func() {
			sorted.lj.AccumulateRangeListFast(sorted.sys, &sorted.rl, sorted.f)
		}),
		measure("kernel/lj-fulllist-noexcl/morton-order", opts.BenchTime, func() {
			sorted.lj.AccumulateRangeListFullNoExcl(sorted.sys, &sorted.rl, sorted.f)
		}),
		measure("kernel/lj-cluster-ref/morton-order", opts.BenchTime, func() {
			sorted.lj.AccumulateClusterList(sorted.sys, &sorted.cl, sorted.f)
		}),
		measure("kernel/lj-cluster-fast/morton-order", opts.BenchTime, func() {
			sorted.lj.AccumulateClusterListFast(sorted.sys, &sorted.cl, sorted.f)
		}),
	)
	if forces.HaveClusterSIMD && !sorted.sys.Box.Periodic {
		rep.Benchmarks = append(rep.Benchmarks,
			measure("kernel/lj-cluster-simd/morton-order", opts.BenchTime, func() {
				sorted.lj.AccumulateClusterListSIMD(sorted.sys, &sorted.cc, &sorted.cl, &sorted.scr, sorted.f)
			}),
		)
	}
	// Coulomb kernels on salt, one op = every pair once: the reference
	// AccumulateRange, and the packed kernel the engine picks under Reorder,
	// timed with its serial pack and its scratch fold as one force phase
	// runs them.
	cs := newCoulombSetup()
	rep.Benchmarks = append(rep.Benchmarks,
		measurePairs("kernel/coulomb-ref/salt", opts.BenchTime, cs.pairs, func() {
			cs.coul.Accumulate(cs.sys, cs.charged, cs.f)
		}),
	)
	if forces.HaveClusterSIMD {
		rep.Benchmarks = append(rep.Benchmarks,
			measurePairs("kernel/coulomb-simd/salt", opts.BenchTime, cs.pairs, func() {
				cs.cc.Pack(cs.sys, cs.charged)
				cs.coul.AccumulateRangeSIMD(&cs.cc, 0, len(cs.charged), &cs.scr[0])
				forces.FoldCoulombScratch(cs.scr, cs.charged, 0, len(cs.charged), cs.f)
			}),
		)
	}
	// Headline §V-A ratio: the seed kernel over the kernel the engine
	// actually runs on Al-1000 with the hot path on.
	rep.KernelSpeedup = rep.Benchmarks[0].NsPerOp / rep.Benchmarks[3].NsPerOp

	// Whole-engine step benchmarks: the seed configuration against the
	// cell-ordered hot path, per Table I workload.
	for _, wl := range workload.All() {
		for _, mode := range []struct {
			name string
			mut  func(*core.Config)
		}{
			{"seed", func(c *core.Config) {}},
			{"cell-ordered", func(c *core.Config) {
				c.Reorder = true
				c.Partition = core.PartitionGuided
			}},
			{"cluster", func(c *core.Config) {
				c.Reorder = true
				c.Partition = core.PartitionGuided
				c.Cluster = true
			}},
		} {
			cfg := wl.Cfg
			mode.mut(&cfg)
			sim, err := core.New(wl.Sys.Clone(), cfg)
			if err != nil {
				return nil, fmt.Errorf("bench %s/%s: %w", wl.Name, mode.name, err)
			}
			rep.Benchmarks = append(rep.Benchmarks,
				measure(fmt.Sprintf("step/%s/%s", wl.Name, mode.name), opts.BenchTime, sim.Step))
			sim.Close()
		}
	}

	// Phase percentiles from the telemetry histograms: seed, cell-ordered,
	// and the cluster rung layered on top of it.
	for _, mode := range []struct {
		name    string
		reorder bool
		cluster bool
	}{{"seed", false, false}, {"cell-ordered", true, false}, {"cluster", true, true}} {
		wl := workload.Al1000()
		cfg := wl.Cfg
		if mode.reorder {
			cfg.Reorder = true
			cfg.Partition = core.PartitionGuided
		}
		cfg.Cluster = mode.cluster
		rec := telemetry.NewRecorder(cfg.Threads, core.PhaseNames())
		cfg.Telemetry = rec
		sim, err := core.New(wl.Sys.Clone(), cfg)
		if err != nil {
			return nil, fmt.Errorf("phases %s: %w", mode.name, err)
		}
		sim.Run(opts.Steps)
		sim.Close()
		snap := rec.Snapshot(0)
		wp := WorkloadPhases{Workload: wl.Name, Config: mode.name, Steps: opts.Steps}
		for _, ph := range snap.Phases {
			wp.Phases = append(wp.Phases, PhasePercentiles{
				Phase:     ph.Phase,
				P50Micros: ph.P50Micros,
				P99Micros: ph.P99Micros,
			})
		}
		rep.Phases = append(rep.Phases, wp)
	}

	// Service tail latency: mwserved under the load sweep, gated like any
	// other benchmark through the serve/* rows.
	if !opts.SkipServe {
		if err := runServe(opts, rep); err != nil {
			return nil, fmt.Errorf("serve bench: %w", err)
		}
	}
	return rep, nil
}

// WriteFile serializes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a report written by WriteFile.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %d, this binary speaks %d", path, r.Schema, Schema)
	}
	return &r, nil
}

// NextPath returns dir's first unused BENCH_<n>.json path.
func NextPath(dir string) string {
	for n := 0; ; n++ {
		p := fmt.Sprintf("%s/BENCH_%d.json", dir, n)
		if _, err := os.Stat(p); os.IsNotExist(err) {
			return p
		}
	}
}
