package bench

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mw/internal/forces"
)

// fastOpts keeps the harness test cheap; timings are meaningless at this
// window, but the structure, alloc counts and serialization are exact. The
// serve sweep shrinks to a handful of 27-atom sessions for the same reason.
var fastOpts = Options{
	BenchTime:        10 * time.Millisecond,
	Steps:            10,
	ServeSessions:    4,
	ServeConcurrency: []int{2},
	ServeNRuns:       1,
	ServeWorkload:    "lj-gas",
}

func TestRunReportStructure(t *testing.T) {
	rep, err := Run(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"kernel/lj-halflist/seed",
		"kernel/lj-halflist-noexcl/seed-order",
		"kernel/lj-halflist-noexcl/morton-order",
		"kernel/lj-halflist-fast/morton-order",
		"kernel/lj-fulllist-noexcl/morton-order",
		"kernel/lj-cluster-ref/morton-order",
		"kernel/lj-cluster-fast/morton-order",
		"kernel/coulomb-ref/salt",
		"step/salt/seed", "step/salt/cell-ordered", "step/salt/cluster",
		"step/Al-1000/seed", "step/Al-1000/cell-ordered", "step/Al-1000/cluster",
		"step/nanocar/seed", "step/nanocar/cell-ordered", "step/nanocar/cluster",
		"serve/lj-gas/c2/step", "serve/lj-gas/c2/step-p99",
	}
	if forces.HaveClusterSIMD {
		want = append(want, "kernel/coulomb-simd/salt")
	}
	byName := map[string]Result{}
	for _, b := range rep.Benchmarks {
		byName[b.Name] = b
	}
	for _, name := range want {
		r, ok := byName[name]
		if !ok {
			t.Errorf("report missing benchmark %q", name)
			continue
		}
		if r.NsPerOp <= 0 {
			t.Errorf("%s: non-positive ns/op %g", name, r.NsPerOp)
		}
	}
	// The acceptance criterion behind the whole harness: the LJ kernels are
	// allocation-free. (testing.AllocsPerRun-style measurement; an allocation
	// here is a hot-loop escape, not noise.)
	for _, name := range want {
		if !strings.HasPrefix(name, "kernel/") {
			continue
		}
		if a := byName[name].AllocsPerOp; a >= 0.5 {
			t.Errorf("%s: %g allocs/op in a kernel, want 0", name, a)
		}
		if strings.HasPrefix(name, "kernel/coulomb-") && byName[name].NsPerPair <= 0 {
			t.Errorf("%s: no ns/pair", name)
		}
	}
	if rep.KernelSpeedup <= 0 {
		t.Errorf("kernel speedup %g, want positive", rep.KernelSpeedup)
	}
	if len(rep.Phases) != 3 {
		t.Fatalf("got %d phase sections, want 3 (seed, cell-ordered, cluster)", len(rep.Phases))
	}
	for _, wp := range rep.Phases {
		if len(wp.Phases) == 0 {
			t.Errorf("phase section %s/%s is empty", wp.Workload, wp.Config)
		}
	}
	if rep.Serve == nil {
		t.Fatal("report has no serve section")
	}
	if rep.Serve.Sessions != fastOpts.ServeSessions || len(rep.Serve.Rows) != 1 {
		t.Errorf("serve section = %+v, want %d sessions and 1 row", rep.Serve, fastOpts.ServeSessions)
	}
	if !rep.Serve.OversubHealthy {
		t.Error("server unhealthy after oversubscription probe")
	}
}

// TestRunSkipServe verifies the serve section is optional — the knob the
// CI race-bench path uses to stay cheap.
func TestRunSkipServe(t *testing.T) {
	opts := fastOpts
	opts.SkipServe = true
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Serve != nil {
		t.Error("SkipServe report still has a serve section")
	}
	for _, b := range rep.Benchmarks {
		if strings.HasPrefix(b.Name, "serve/") {
			t.Errorf("SkipServe report has row %s", b.Name)
		}
	}
}

func TestReportRoundTripAndDiff(t *testing.T) {
	rep, err := Run(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_t.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Benchmarks) != len(rep.Benchmarks) || back.Schema != Schema {
		t.Fatal("report did not round-trip")
	}

	// A report diffed against itself is clean.
	if _, _, err := Diff(rep, back, 0.15); err != nil {
		t.Errorf("self-diff regressed: %v", err)
	}

	// A 2× slowdown on one benchmark must fail the diff and name it.
	slow := *back
	slow.Benchmarks = append([]Result(nil), back.Benchmarks...)
	slow.Benchmarks[0].NsPerOp *= 2
	report, _, err := Diff(rep, &slow, 0.15)
	if err == nil {
		t.Fatal("2x regression passed the diff")
	}
	if !strings.Contains(err.Error(), slow.Benchmarks[0].Name) {
		t.Errorf("error does not name the regressed benchmark: %v", err)
	}
	if !strings.Contains(report, "REGRESSED") {
		t.Error("report does not mark the regression")
	}

	// A fresh allocation in a previously allocation-free benchmark regresses
	// regardless of timing.
	alloc := *back
	alloc.Benchmarks = append([]Result(nil), back.Benchmarks...)
	alloc.Benchmarks[0].AllocsPerOp = 1
	if _, _, err := Diff(rep, &alloc, 0.15); err == nil {
		t.Error("new hot-loop allocation passed the diff")
	}

	// Within-tolerance drift passes.
	drift := *back
	drift.Benchmarks = append([]Result(nil), back.Benchmarks...)
	for i := range drift.Benchmarks {
		drift.Benchmarks[i].NsPerOp *= 1.05
	}
	if _, _, err := Diff(rep, &drift, 0.15); err != nil {
		t.Errorf("5%% drift failed a 15%% tolerance: %v", err)
	}
}

func TestNextPath(t *testing.T) {
	dir := t.TempDir()
	if got, want := NextPath(dir), filepath.Join(dir, "BENCH_0.json"); got != want {
		t.Fatalf("NextPath = %q, want %q", got, want)
	}
	rep := &Report{Schema: Schema}
	if err := rep.WriteFile(filepath.Join(dir, "BENCH_0.json")); err != nil {
		t.Fatal(err)
	}
	if got, want := NextPath(dir), filepath.Join(dir, "BENCH_1.json"); got != want {
		t.Fatalf("NextPath = %q, want %q", got, want)
	}
}

var allocSink []byte

// TestAllocsPerOp: the minimum over trials still charges a call its own
// allocations, every time.
func TestAllocsPerOp(t *testing.T) {
	if a := allocsPerOp(func() { allocSink = make([]byte, 64) }); a < 1 {
		t.Errorf("allocating call measured %g allocs/op, want ≥ 1", a)
	}
	if a := allocsPerOp(func() {}); a != 0 {
		t.Errorf("empty call measured %g allocs/op, want 0", a)
	}
}
