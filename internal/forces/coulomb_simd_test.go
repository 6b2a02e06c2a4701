package forces_test

import (
	"math"
	"math/rand"
	"testing"

	"mw/internal/atom"
	"mw/internal/forces"
	"mw/internal/units"
	"mw/internal/vec"
	"mw/internal/workload"
)

// coulombSIMD evaluates the packed kernel the way the engine does: pack,
// deal the charged rows out as chunks of size chunk to workers round-robin,
// accumulate into per-worker scratch, then fold every worker's scratch into
// a zeroed force array in reduce-sized spans of the charged list.
func coulombSIMD(c forces.Coulomb, s *atom.System, charged []int32, workers, chunk int) (float64, []vec.Vec3) {
	var cc forces.CoulombCoords
	cc.Pack(s, charged)
	scr := make([]forces.CoulombScratch, workers)
	var pe float64
	for lo, item := 0, 0; lo < len(charged); lo, item = lo+chunk, item+1 {
		hi := min(lo+chunk, len(charged))
		pe += c.AccumulateRangeSIMD(&cc, lo, hi, &scr[item%workers])
	}
	f := make([]vec.Vec3, s.N())
	for klo := 0; klo < len(charged); klo += 7 {
		forces.FoldCoulombScratch(scr, charged, klo, min(klo+7, len(charged)), f)
	}
	return pe, f
}

// coulombScales returns the cancellation-free magnitudes the packed
// kernel's rounding is measured against: Σ|e| over all pairs, and the
// largest per-atom Σ|F| over its pairs. Relative to these, reordering the
// sums moves the result by a few ulps however much the signed sums cancel.
func coulombScales(c forces.Coulomb, s *atom.System, charged []int32) (eAbs, fAbs float64) {
	soft2 := c.Softening * c.Softening
	fsum := make([]float64, s.N())
	for a, i := range charged {
		for _, j := range charged[a+1:] {
			r2 := s.Pos[j].Sub(s.Pos[i]).Norm2() + soft2
			if r2 == 0 {
				continue
			}
			e := math.Abs(units.CoulombK * s.Charge[i] * s.Charge[j] / math.Sqrt(r2))
			eAbs += e
			fsum[i] += e / math.Sqrt(r2)
			fsum[j] += e / math.Sqrt(r2)
		}
	}
	for _, v := range fsum {
		fAbs = math.Max(fAbs, v)
	}
	return eAbs, fAbs
}

// checkCoulombSIMD compares the packed kernel against the reference:
// energy and forces to 1e-12 relative (against the coulombScales
// magnitudes), and the packed forces must be finite and sum to zero
// (Newton 3) within 1e-9.
func checkCoulombSIMD(t *testing.T, name string, c forces.Coulomb, s *atom.System, workers, chunk int) {
	t.Helper()
	charged := s.ChargedIndices()
	fRef := make([]vec.Vec3, s.N())
	peRef := c.Accumulate(s, charged, fRef)
	pe, f := coulombSIMD(c, s, charged, workers, chunk)
	eAbs, fAbs := coulombScales(c, s, charged)
	if d := math.Abs(pe - peRef); !(d <= 1e-12*eAbs) {
		t.Errorf("%s: energy %.17g vs reference %.17g (Δ %.3g, Σ|e| %.3g)", name, pe, peRef, d, eAbs)
	}
	if d := maxForceDev(fRef, f); !(d <= 1e-12*fAbs) {
		t.Errorf("%s: max force deviation %.3g (Σ|f| %.3g)", name, d, fAbs)
	}
	var net vec.Vec3
	for _, fi := range f {
		net = net.Add(fi)
	}
	if !(net.MaxAbs() <= 1e-9*math.Max(1, fAbs)) {
		t.Errorf("%s: net force %v violates Newton 3", name, net)
	}
}

// randomIons places n ions with random ±1/±2 charges in a closed box; with
// neutral set, a neutral atom precedes every ion so the charged indices
// are non-contiguous.
func randomIons(rng *rand.Rand, n int, neutral bool) *atom.System {
	s := atom.NewSystem(atom.CubicBox(30, false))
	for i := 0; i < n; i++ {
		if neutral {
			s.AddAtom(atom.Ar, vec.New(rng.Float64()*30, rng.Float64()*30, rng.Float64()*30), vec.Zero, 0, false)
		}
		q := float64(1 + rng.Intn(2))
		if rng.Intn(2) == 0 {
			q = -q
		}
		s.AddAtom(atom.Na, vec.New(rng.Float64()*30, rng.Float64()*30, rng.Float64()*30), vec.Zero, q, false)
	}
	return s
}

func requireCoulombSIMD(t testing.TB) {
	if !forces.HaveClusterSIMD {
		t.Skip("no packed Coulomb kernel on this CPU")
	}
}

// TestCoulombSIMDSalt: the salt lattice, the workload the kernel exists for.
func TestCoulombSIMDSalt(t *testing.T) {
	requireCoulombSIMD(t)
	checkCoulombSIMD(t, "salt", forces.Coulomb{Softening: 0.05}, workload.Salt().Sys, 1, 1<<30)
}

// TestCoulombSIMDPadding covers charged counts below one vector and every
// remainder mod 4, so each row's last 4-lane group reads 0–3 padding lanes.
func TestCoulombSIMDPadding(t *testing.T) {
	requireCoulombSIMD(t)
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 33} {
		for _, soft := range []float64{0, 0.05} {
			checkCoulombSIMD(t, "padding", forces.Coulomb{Softening: soft}, randomIons(rng, n, false), 1, 1<<30)
		}
	}
}

// TestCoulombSIMDInterleavedNeutral: neutral atoms between the ions make
// the charged indices non-contiguous, exercising the pack gather and the
// fold scatter.
func TestCoulombSIMDInterleavedNeutral(t *testing.T) {
	requireCoulombSIMD(t)
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{3, 17, 40} {
		checkCoulombSIMD(t, "interleaved", forces.Coulomb{Softening: 0.05}, randomIons(rng, n, true), 2, 5)
	}
}

// TestCoulombSIMDCoincidentUnsoftened: with Softening = 0 a coincident pair
// has r² = 0, which the reference skips. The packed kernel must contribute
// exact zeros for it — no NaN, no Inf — and match the reference elsewhere.
func TestCoulombSIMDCoincidentUnsoftened(t *testing.T) {
	requireCoulombSIMD(t)
	c := forces.Coulomb{}
	s := atom.NewSystem(atom.CubicBox(20, false))
	s.AddAtom(atom.Na, vec.New(5, 5, 5), vec.Zero, 1, false)
	s.AddAtom(atom.Cl, vec.New(5, 5, 5), vec.Zero, -1, false)
	pe, f := coulombSIMD(c, s, s.ChargedIndices(), 1, 1)
	if pe != 0 || f[0] != vec.Zero || f[1] != vec.Zero {
		t.Errorf("coincident pair: pe %v forces %v, want exact zeros", pe, f)
	}
	s.AddAtom(atom.Na, vec.New(9, 6, 5), vec.Zero, 1, false)
	checkCoulombSIMD(t, "coincident+1", c, s, 1, 1)
}

// TestCoulombSIMDChunkedWorkers: any split of the charged rows into chunks
// dealt to 1–4 workers sums to the whole.
func TestCoulombSIMDChunkedWorkers(t *testing.T) {
	requireCoulombSIMD(t)
	s := workload.Salt().Sys
	c := forces.Coulomb{Softening: 0.05}
	charged := s.ChargedIndices()
	peWhole, fWhole := coulombSIMD(c, s, charged, 1, len(charged))
	for workers := 1; workers <= 4; workers++ {
		for _, chunk := range []int{1, 33, 250} {
			pe, f := coulombSIMD(c, s, charged, workers, chunk)
			if d := math.Abs(pe - peWhole); !(d <= 1e-12*math.Abs(peWhole)) {
				t.Errorf("%d workers, chunk %d: energy %.17g vs whole %.17g", workers, chunk, pe, peWhole)
			}
			if d := maxForceDev(fWhole, f); !(d <= 1e-12) {
				t.Errorf("%d workers, chunk %d: force deviation %.3g", workers, chunk, d)
			}
		}
	}
}

// FuzzCoulombSIMD drives the packed kernel against the reference over
// random ion counts, positions, charges and softening lengths.
func FuzzCoulombSIMD(f *testing.F) {
	f.Add(int64(1), uint8(1), 0.0, false)
	f.Add(int64(2), uint8(7), 0.05, true)
	f.Add(int64(3), uint8(30), 0.5, false)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, soft float64, neutral bool) {
		requireCoulombSIMD(t)
		if math.IsNaN(soft) || math.IsInf(soft, 0) || math.Abs(soft) > 10 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		s := randomIons(rng, int(n%64)+1, neutral)
		workers := 1 + int(uint64(seed)%4)
		checkCoulombSIMD(t, "fuzz", forces.Coulomb{Softening: soft}, s, workers, 1+int(n%9))
	})
}
