package core

import (
	"context"
	"fmt"
	"math"
	"runtime/trace"
	"sync"
	"time"

	"mw/internal/atom"
	"mw/internal/cells"
	"mw/internal/forces"
	"mw/internal/pool"
	"mw/internal/stats"
	"mw/internal/units"
	"mw/internal/vec"
)

// Simulation drives a System through timesteps with the phase structure of
// parallel Molecular Workbench. Create with New, advance with Step or Run,
// release workers with Close.
type Simulation struct {
	Sys *atom.System
	Cfg Config

	lj   *forces.LJ
	coul forces.Coulomb
	grid *cells.Grid

	charged []int32
	// noExcl selects the exclusion-free LJ kernels: true when the system has
	// no excluded pairs, so the per-pair ExclusionSet call can be dropped
	// from the innermost loop. Those kernels are bitwise-identical to the
	// reference math. fastLJ additionally selects the single-reciprocal
	// half-list kernel, whose FP association differs at the ulp level — it is
	// gated on the opt-in reorder hot path (plus no exclusions and no fixed
	// atoms) so default-path golden trajectories never move.
	noExcl bool
	fastLJ bool

	// Cluster-rung state (Cfg.Cluster): per-chunk cluster-pair lists, and —
	// when the packed kernel is selected — the shared padded SoA coordinate
	// copy (repacked serially every step) plus per-chunk SIMD force scratch.
	// clusterFast/clusterSIMD mirror the fastLJ ladder: reference kernel by
	// default, fast variants only on the opt-in reorder hot path.
	clusterLists []cells.ClusterList
	clCoords     *cells.ClusterCoords
	clScratch    []forces.ClusterScratch
	clusterFast  bool
	clusterSIMD  bool

	// Packed Coulomb state, non-nil exactly when useCoulombSIMD picked the
	// packed kernel: the padded SoA copy of the charged atoms, repacked
	// serially every force phase, and per-worker SoA force scratch that the
	// reduce phase folds into the reduced forces.
	coulCoords  *forces.CoulombCoords
	coulScratch []forces.CoulombScratch

	// Neighbor-list state: per-atom-chunk range lists plus the reference
	// positions from the last rebuild (for the phase-2 validity check).
	ljLists   []cells.RangeList
	refPos    []vec.Vec3
	listValid bool
	rebuilds  int

	// prevAcc holds the previous step's accelerations for the Beeman
	// integrator (nil under velocity Verlet).
	prevAcc []vec.Vec3

	// Executor state. ex is nil for serial runs. pinned is set when the
	// per-worker-queue topology is selected; stealing when work stealing is.
	ex       pool.Executor
	pinned   *pool.PinnedPools
	stealing *pool.StealingPools

	// Per-worker privatized state.
	priv     [][]vec.Vec3 // force arrays (privatized mode)
	peWorker []float64
	maxDisp2 []float64 // per-worker phase-2 partial maxima
	busy     []time.Duration

	forceMu sync.Mutex // guards Sys.Force in shared-mutex mode

	// ro is the §V-A engine-native spatial reordering state (Cfg.Reorder).
	ro reorderState

	// Chunk geometry.
	atomChunks, coulChunks, bondChunks, angleChunks, torsChunks, morseChunks chunkSet

	step int
	pe   float64

	// PhaseWall accumulates wall-clock time per phase across the run.
	PhaseWall [NumPhases]stats.Running
	// WorkerBusy accumulates per-worker busy time per phase.
	WorkerBusy [NumPhases][]time.Duration
}

// chunkSet is a partition of [0, total) into chunks: uniform chunks of size
// size, or — when cuts is set — explicit boundaries (the Morton cell-block
// alignment of the reorder pass, where every chunk covers whole cells).
type chunkSet struct {
	total, size, count int
	cuts               []int32 // nil for uniform chunks; else length count+1
}

func newChunkSet(total, size int) chunkSet {
	if size <= 0 {
		size = 1
	}
	count := (total + size - 1) / size
	return chunkSet{total: total, size: size, count: count}
}

// newCutChunkSet builds a chunkSet from explicit ascending boundaries
// (cuts[0] = 0, cuts[len-1] = total).
func newCutChunkSet(cuts []int32) chunkSet {
	total := int(cuts[len(cuts)-1])
	return chunkSet{total: total, count: len(cuts) - 1, cuts: cuts}
}

//mw:hotpath
func (c chunkSet) bounds(i int) (lo, hi int) {
	if c.cuts != nil {
		return int(c.cuts[i]), int(c.cuts[i+1])
	}
	lo = i * c.size
	hi = lo + c.size
	if hi > c.total {
		hi = c.total
	}
	return lo, hi
}

// useCoulombSIMD is the selection rule of the packed Coulomb kernel. It is
// the packed LJ rung's rule — the opt-in reorder hot path (the kernel's
// accumulation order differs from the reference at the rounding level, so
// default-path goldens keep AccumulateRange), a capable CPU, a closed box —
// plus privatized reduction (the kernel's per-worker scratch is folded by
// the reduce phase; the shared-mutex ablation keeps the reference) and at
// least one charged atom.
func useCoulombSIMD(cfg Config, periodic bool, nCharged int, haveSIMD bool) bool {
	return cfg.Reorder && haveSIMD && !periodic &&
		cfg.Reduce == ReducePrivatized && nCharged > 0
}

// New creates a simulation over sys. The system is validated; its Acc array
// is initialized from a first force evaluation so that the first predictor
// step sees consistent state.
func New(sys *atom.System, cfg Config) (*Simulation, error) {
	cfg = cfg.withDefaults()
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if sys.Excl == nil && (len(sys.Bonds) > 0 || len(sys.Angles) > 0 || len(sys.Torsions) > 0 || len(sys.Morses) > 0) {
		sys.BuildExclusions()
	}
	rng := cfg.LJCutoff + cfg.Skin
	// The minimum-image convention needs *every* periodic edge to be at
	// least the interaction range — a box thin in one dimension would pass a
	// max-edge check and silently fold neighbors onto the wrong image.
	if sys.Box.Periodic && sys.Box.L.MinAbs() < rng {
		return nil, fmt.Errorf("core: periodic box edge smaller than interaction range %g", rng)
	}
	if cfg.Cluster && cfg.PairLists == FullLists {
		return nil, fmt.Errorf("core: cluster pair format requires half pair lists")
	}
	sim := &Simulation{
		Sys:     sys,
		Cfg:     cfg,
		lj:      forces.NewLJ(sys.Elements, cfg.LJCutoff),
		coul:    forces.Coulomb{Softening: cfg.CoulombSoftening},
		grid:    cells.NewGrid(sys.Box, rng),
		charged: sys.ChargedIndices(),
		noExcl:  sys.Excl.Len() == 0,
	}
	if cfg.Reorder && sim.noExcl {
		sim.fastLJ = true
		for _, fx := range sys.Fixed {
			if fx {
				sim.fastLJ = false
				break
			}
		}
	}
	n := sys.N()
	w := cfg.Threads
	// With Reorder on, sort the system into Morton cell order up front so
	// the atom-chunk boundaries computed next can align to cell blocks:
	// under guided/dynamic partitions the shared cursor then deals out
	// contiguous blocks of whole cells in decreasing batches.
	if cfg.Reorder {
		sim.maybeReorder()
	}
	if cfg.Reorder && n > 0 && sim.ro.cellPop != nil {
		sim.atomChunks = newCutChunkSet(cellChunkCuts(sim.ro.cellPop, n, cfg.ChunkAtoms))
	} else {
		sim.atomChunks = newChunkSet(n, cfg.ChunkAtoms)
	}
	sim.coulChunks = newChunkSet(len(sim.charged), cfg.ChunkAtoms/2+1)
	sim.bondChunks = newChunkSet(len(sys.Bonds), cfg.ChunkAtoms)
	sim.angleChunks = newChunkSet(len(sys.Angles), cfg.ChunkAtoms)
	sim.torsChunks = newChunkSet(len(sys.Torsions), cfg.ChunkAtoms)
	sim.morseChunks = newChunkSet(len(sys.Morses), cfg.ChunkAtoms)
	sim.ljLists = make([]cells.RangeList, sim.atomChunks.count)
	if cfg.Cluster {
		sim.clusterLists = make([]cells.ClusterList, sim.atomChunks.count)
		if cfg.Reorder {
			sim.clusterSIMD = forces.HaveClusterSIMD && !sys.Box.Periodic
			sim.clusterFast = !sim.clusterSIMD
		}
		if sim.clusterSIMD {
			sim.clCoords = &cells.ClusterCoords{}
			sim.clScratch = make([]forces.ClusterScratch, sim.atomChunks.count)
		}
	}
	if useCoulombSIMD(cfg, sys.Box.Periodic, len(sim.charged), forces.HaveClusterSIMD) {
		sim.coulCoords = &forces.CoulombCoords{}
		sim.coulScratch = make([]forces.CoulombScratch, w)
	}
	sim.refPos = make([]vec.Vec3, n)

	sim.peWorker = make([]float64, w)
	sim.maxDisp2 = make([]float64, w)
	sim.busy = make([]time.Duration, w)
	if cfg.Reduce == ReducePrivatized {
		sim.priv = make([][]vec.Vec3, w)
		for i := range sim.priv {
			sim.priv[i] = make([]vec.Vec3, n)
		}
	}
	for ph := range sim.WorkerBusy {
		sim.WorkerBusy[ph] = make([]time.Duration, w)
	}
	if w > 1 {
		switch cfg.Queues {
		case PerWorkerQueues:
			sim.pinned = pool.NewPinnedPools(w)
			sim.ex = sim.pinned
		case WorkStealingQueues:
			sim.stealing = pool.NewStealingPools(w)
		default:
			sim.ex = pool.NewFixedPool(w)
		}
	}

	// Initial force evaluation fills Force and Acc. It is bootstrap, not a
	// timestep: instruments and telemetry must not see it as a phase
	// instance (nor its tasks as chunks or parks) — counting bootstrap is
	// exactly the metric pollution the maintenance paths elsewhere avoid.
	// The force array must be cleared first: a system cloned from a previous
	// run carries that run's forces, and the shared-mutex mode accumulates
	// into Force in place (privatized mode overwrites it during reduce, but
	// zeroing is cheap and keeps both modes on the same contract).
	sys.ZeroForces()
	inst, tele := sim.Cfg.Instrument, sim.Cfg.Telemetry
	sim.Cfg.Instrument = nil
	sim.Cfg.Telemetry = nil
	sim.listValid = false
	sim.forcePhase()
	sim.reducePhase()
	sim.Cfg.Instrument = inst
	sim.Cfg.Telemetry = tele
	if tele != nil {
		// Pool-level events (steals, parks) flow to the same sink, armed
		// only now so bootstrap parks are invisible.
		switch {
		case sim.pinned != nil:
			sim.pinned.SetTelemetry(tele)
		case sim.stealing != nil:
			sim.stealing.SetTelemetry(tele)
		case sim.ex != nil:
			if fp, ok := sim.ex.(*pool.FixedPool); ok {
				fp.SetTelemetry(tele)
			}
		}
	}
	for i := range sys.Acc {
		sys.Acc[i] = sys.Force[i].Scale(sys.InvMass[i] * units.ForceToAccel)
	}
	if cfg.Integrator == Beeman {
		// Bootstrap a(t−dt) = a(0): degrades the first step to second
		// order, standard practice.
		sim.prevAcc = append([]vec.Vec3(nil), sys.Acc...)
	}
	return sim, nil
}

// Close shuts the worker pool down. The simulation must not be stepped
// afterwards.
func (sim *Simulation) Close() {
	if sim.ex != nil {
		sim.ex.Shutdown()
		sim.ex = nil
		sim.pinned = nil
	}
	if sim.stealing != nil {
		sim.stealing.Shutdown()
		sim.stealing = nil
	}
}

// Step advances the simulation by one timestep through the full phase
// sequence.
func (sim *Simulation) Step() {
	region := trace.StartRegion(context.Background(), "mw.step")
	sim.step++
	sim.predictorPhase()
	sim.neighborCheckPhase()
	if sim.Cfg.SeparateRebuild && !sim.listValid {
		sim.rebuildPhase()
	}
	sim.forcePhase()
	sim.reducePhase()
	sim.correctorPhase()
	if sim.Cfg.Thermostat != nil {
		sim.Cfg.Thermostat.Apply(sim.Sys, sim.Cfg.Dt)
	}
	region.End()
	if tele := sim.Cfg.Telemetry; tele != nil {
		tele.StepDone(sim.step)
	}
}

// Run advances the simulation by n timesteps.
func (sim *Simulation) Run(n int) {
	for i := 0; i < n; i++ {
		sim.Step()
	}
}

// RunFor advances the simulation by the given simulated duration in fs.
// The step count rounds to the nearest integer when the division lands
// within a relative tolerance of it: 10 fs at Dt=0.1 is 100 steps even
// though 10.0/0.1 evaluates to 99.999… in floating point. Otherwise the
// fractional tail is truncated as before (only whole steps run).
func (sim *Simulation) RunFor(fs float64) {
	ratio := fs / sim.Cfg.Dt
	steps := int(ratio)
	if nearest := math.Round(ratio); nearest > 0 && math.Abs(ratio-nearest) <= 1e-9*nearest {
		steps = int(nearest)
	}
	sim.Run(steps)
}

// StepCount returns the number of completed timesteps.
func (sim *Simulation) StepCount() int { return sim.step }

// PE returns the potential energy from the most recent force evaluation.
func (sim *Simulation) PE() float64 { return sim.pe }

// TotalEnergy returns PE + KE in eV.
func (sim *Simulation) TotalEnergy() float64 {
	return sim.pe + sim.Sys.KineticEnergy()
}

// Rebuilds returns how many times the neighbor list has been rebuilt.
func (sim *Simulation) Rebuilds() int { return sim.rebuilds }

// Workers returns the configured worker count.
func (sim *Simulation) Workers() int { return sim.Cfg.Threads }

// QueueStats returns the executor's queue counters (enqueued, dequeued,
// contended lock acquisitions); zeros for serial runs.
func (sim *Simulation) QueueStats() (enqueued, dequeued, contended int64) {
	switch ex := sim.ex.(type) {
	case *pool.FixedPool:
		return ex.QueueStats()
	case *pool.PinnedPools:
		return ex.QueueStats()
	}
	return 0, 0, 0
}

// Steals returns per-worker steal counts under the work-stealing topology
// (nil otherwise).
func (sim *Simulation) Steals() []int64 {
	if sim.stealing == nil {
		return nil
	}
	return sim.stealing.Steals()
}

// LJPairs returns the number of stored LJ half pairs. Under Cfg.Cluster the
// pairs live in the cluster lists as mask bits rather than in ljLists, so
// the count comes from there.
func (sim *Simulation) LJPairs() int {
	n := 0
	if sim.Cfg.Cluster {
		for i := range sim.clusterLists {
			n += sim.clusterLists[i].Pairs()
		}
		return n
	}
	for i := range sim.ljLists {
		n += sim.ljLists[i].Len()
	}
	return n
}
