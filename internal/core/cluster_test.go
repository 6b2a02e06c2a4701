package core

import (
	"math"
	"testing"

	"mw/internal/atom"
	"mw/internal/forces"
	"mw/internal/vec"
)

// TestClusterMatchesDefaultEngine runs the cluster rung against the default
// half-list engine on the same seeded system and bounds the per-run
// deviation. The cluster kernels visit exactly the same pairs; only the
// summation order differs, so the trajectories should agree far tighter
// than any physical tolerance.
func TestClusterMatchesDefaultEngine(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"serial-reference", Config{Dt: 1, Cluster: true}},
		{"reorder-guided-fast", Config{Dt: 1, Cluster: true, Reorder: true, Partition: PartitionGuided}},
		{"threads-stealing", Config{Dt: 1, Threads: 4, Queues: WorkStealingQueues, Cluster: true, Reorder: true, Partition: PartitionGuided}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := mustSim(t, ljGas(4, 4.3, 120, false), Config{Dt: 1})
			defer ref.Close()
			got := mustSim(t, ljGas(4, 4.3, 120, false), tc.cfg)
			defer got.Close()
			var worst StateDiff
			for step := 0; step < 25; step++ {
				ref.Step()
				got.Step()
				worst = worst.Merge(ref.Snapshot().Diff(got.Snapshot()))
			}
			const tol = 1e-7
			// Negated-<= so a NaN-poisoned diff fails instead of comparing false.
			if !(worst.Pos <= tol && worst.Vel <= tol && worst.Force <= tol && worst.PE <= tol) {
				t.Errorf("cluster engine deviates from default: %v", worst)
			}
		})
	}
}

// TestClusterPeriodicBox exercises the cluster rung under a periodic box,
// where the engine must stay on the Go kernels (the packed kernel is
// non-periodic only).
func TestClusterPeriodicBox(t *testing.T) {
	ref := mustSim(t, ljGas(3, 4.3, 80, true), Config{Dt: 1})
	defer ref.Close()
	got := mustSim(t, ljGas(3, 4.3, 80, true), Config{Dt: 1, Cluster: true, Reorder: true, Partition: PartitionGuided})
	defer got.Close()
	var worst StateDiff
	for step := 0; step < 25; step++ {
		ref.Step()
		got.Step()
		worst = worst.Merge(ref.Snapshot().Diff(got.Snapshot()))
	}
	const tol = 1e-7
	if !(worst.Pos <= tol && worst.Vel <= tol && worst.Force <= tol && worst.PE <= tol) {
		t.Errorf("periodic cluster engine deviates from default: %v", worst)
	}
	// Pair accounting must follow the active list format: under Cluster the
	// pairs are mask bits, not ljLists entries.
	if got.LJPairs() == 0 {
		t.Error("cluster engine reports 0 LJ pairs")
	}
}

// TestClusterRequiresHalfLists: the cluster masks encode Newton-3 half-pair
// ownership, so full lists must be rejected at construction.
func TestClusterRequiresHalfLists(t *testing.T) {
	s := ljGas(2, 4.3, 10, false)
	if _, err := New(s, Config{Cluster: true, PairLists: FullLists}); err == nil {
		t.Error("Cluster+FullLists accepted")
	}
}

// TestAnisotropicPeriodicBoxRejected: the minimum-image check must use the
// *thinnest* periodic edge. A box ample in two dimensions but thinner than
// the interaction range in the third passes a max-edge check and silently
// folds neighbors onto the wrong image.
func TestAnisotropicPeriodicBoxRejected(t *testing.T) {
	s := atom.NewSystem(atom.NewBox(20, 5, 20, true))
	s.AddAtom(atom.Ar, vec.New(1, 1, 1), vec.Zero, 0, false)
	if _, err := New(s, Config{LJCutoff: 8, Skin: 0.8}); err == nil {
		t.Error("periodic box with one undersized edge accepted")
	}
	// The same extents without periodicity are fine.
	s2 := atom.NewSystem(atom.NewBox(20, 5, 20, false))
	s2.AddAtom(atom.Ar, vec.New(1, 1, 1), vec.Zero, 0, false)
	if _, err := New(s2, Config{LJCutoff: 8, Skin: 0.8}); err != nil {
		t.Errorf("non-periodic thin box rejected: %v", err)
	}
}

// TestRunForSteps: RunFor must round to the nearest whole step when the
// requested duration is a whole multiple of Dt up to floating-point error —
// naive truncation turns 10.0/0.1 = 99.999… into 99 steps.
func TestRunForSteps(t *testing.T) {
	cases := []struct {
		dt, fs float64
		want   int
	}{
		{0.1, 10, 100}, // 10/0.1 = 99.999…; truncation would drop a step
		{0.7, 7, 10},   // 7/0.7 = 9.999…
		{2, 10, 5},     // exact
		{0.3, 1, 3},    // 3.33 steps: not near-integral, truncate
		{0.1, 9.99, 99},
		{1, 0.4, 0},
	}
	for _, tc := range cases {
		s := ljGas(2, 4.3, 10, false)
		sim := mustSim(t, s, Config{Dt: tc.dt})
		sim.RunFor(tc.fs)
		if got := sim.StepCount(); got != tc.want {
			t.Errorf("RunFor(%v) at Dt=%v: %d steps, want %d", tc.fs, tc.dt, got, tc.want)
		}
		sim.Close()
	}
	// Guard the guard: a genuinely integral ratio stays put.
	if r := 10.0 / 2.0; math.Round(r) != 5 {
		t.Fatal("arithmetic sanity")
	}
}

// ionLattice is a small rock-salt block of alternating ±1 ions; closed
// boxes get a margin so the lattice sits inside the walls.
func ionLattice(nx int, periodic bool) *atom.System {
	const a = 2.82
	l, off := float64(nx)*a, a/2
	if !periodic {
		l, off = l+8, 4+a/2
	}
	s := atom.NewSystem(atom.CubicBox(l, periodic))
	for x := 0; x < nx; x++ {
		for y := 0; y < nx; y++ {
			for z := 0; z < nx; z++ {
				el, q := int16(atom.Na), 1.0
				if (x+y+z)%2 == 1 {
					el, q = atom.Cl, -1
				}
				p := vec.New(off+float64(x)*a, off+float64(y)*a, off+float64(z)*a)
				s.AddAtom(el, p, vec.Zero, q, false)
			}
		}
	}
	return s
}

// TestCoulombKernelSelection pins the packed Coulomb kernel's selection
// rule: it runs for a closed ionic system on the reorder hot path with
// privatized reduction on a capable CPU, and every other configuration
// keeps the reference AccumulateRange. Where it runs, the trajectory must
// track the default engine to reduction-order noise.
func TestCoulombKernelSelection(t *testing.T) {
	hot := Config{Dt: 1, Reorder: true, Partition: PartitionGuided}
	cases := []struct {
		name     string
		sys      *atom.System
		cfg      Config
		wantSIMD bool
	}{
		{"closed-reorder", ionLattice(6, false), hot, forces.HaveClusterSIMD},
		{"closed-reorder-cluster-threads", ionLattice(6, false),
			Config{Dt: 1, Threads: 3, Queues: WorkStealingQueues, Reorder: true, Cluster: true, Partition: PartitionGuided},
			forces.HaveClusterSIMD},
		{"periodic", ionLattice(4, true), hot, false},
		{"shared-mutex", ionLattice(6, false),
			Config{Dt: 1, Threads: 2, Reduce: ReduceSharedMutex, Reorder: true, Partition: PartitionGuided}, false},
		{"no-reorder", ionLattice(6, false), Config{Dt: 1, Threads: 2}, false},
		{"no-charges", ljGas(4, 4.3, 120, false), hot, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := mustSim(t, tc.sys.Clone(), Config{Dt: 1})
			defer ref.Close()
			got := mustSim(t, tc.sys, tc.cfg)
			defer got.Close()
			if simd := got.coulCoords != nil; simd != tc.wantSIMD {
				t.Fatalf("packed Coulomb selected = %v, want %v", simd, tc.wantSIMD)
			}
			var worst StateDiff
			for step := 0; step < 10; step++ {
				ref.Step()
				got.Step()
				worst = worst.Merge(ref.Snapshot().Diff(got.Snapshot()))
			}
			const tol = 1e-7
			if !(worst.Pos <= tol && worst.Vel <= tol && worst.Force <= tol && worst.PE <= tol) {
				t.Errorf("deviates from default engine: %v", worst)
			}
		})
	}
	// Without AVX2 the rule never picks the packed kernel, whatever else
	// holds.
	if useCoulombSIMD(hot, false, 64, false) {
		t.Error("packed Coulomb selected without HaveClusterSIMD")
	}
}
