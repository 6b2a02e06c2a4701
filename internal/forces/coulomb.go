package forces

import (
	"math"

	"mw/internal/atom"
	"mw/internal/units"
	"mw/internal/vec"
)

// Coulomb computes direct pairwise electrostatics between every pair of
// charged particles, regardless of distance — exactly the O(N²) algorithm
// Molecular Workbench uses (the paper notes particle-mesh Ewald as future
// work; see package ewald for that extension). A small softening length
// avoids the singularity if ions overlap during equilibration.
type Coulomb struct {
	// Softening is added in quadrature to r; zero gives the bare 1/r².
	Softening float64
}

// AccumulateRange adds Coulomb forces for all half pairs (ci, cj), cj > ci,
// where ci indexes positions lo ≤ ci < hi of the charged list, into f, and
// returns their potential energy. The charged list is the System's
// ChargedIndices(); passing it in lets the engine compute it once per run.
//
//mw:hotpath
func (c Coulomb) AccumulateRange(s *atom.System, charged []int32, lo, hi int, f []vec.Vec3) float64 {
	var pe float64
	soft2 := c.Softening * c.Softening
	box := s.Box
	// BCE preamble (the forces/lj.go pattern): reslice the per-atom arrays
	// to the force array's length, guard the range once, and compare every
	// gathered index as a uint, so the prove pass drops the pair loop's
	// bounds checks. MinImage is the identity on a closed box; hoisting that
	// branch out of the loop leaves the arithmetic untouched.
	n := len(f)
	pos, charge := s.Pos[:n], s.Charge[:n]
	periodic := box.Periodic
	if lo < 0 || hi > len(charged) {
		panic("forces: Coulomb range outside charged list")
	}
	for ci := lo; ci < hi; ci++ {
		i := int(charged[ci])
		if uint(i) >= uint(n) {
			continue // corrupt charged index; valid lists never hit this
		}
		pi := pos[i]
		qi := charge[i]
		fi := f[i]
		for _, j := range charged[ci+1:] {
			jj := int(j)
			if uint(jj) >= uint(n) {
				continue
			}
			d := pos[jj].Sub(pi)
			if periodic {
				d = box.MinImage(d)
			}
			r2 := d.Norm2() + soft2
			if r2 == 0 {
				continue
			}
			r := math.Sqrt(r2)
			e := units.CoulombK * qi * charge[jj] / r
			pe += e
			// F = k q1 q2 / r² along the pair axis; repulsive for like signs.
			fs := e / r2
			fi = fi.AddScaled(-fs, d)
			f[jj] = f[jj].AddScaled(fs, d)
		}
		f[i] = fi
	}
	return pe
}

// Accumulate adds Coulomb forces for every charged pair.
func (c Coulomb) Accumulate(s *atom.System, charged []int32, f []vec.Vec3) float64 {
	return c.AccumulateRange(s, charged, 0, len(charged), f)
}

// Field is a uniform external field: a constant electric field E (eV/(Å·e))
// acting on charges and a constant acceleration field G (applied as force
// m·G/ForceToAccel so that every atom accelerates at G, like gravity).
type Field struct {
	E vec.Vec3 // force per unit charge
	G vec.Vec3 // acceleration, Å/fs²
}

// AccumulateRange adds field forces for atoms lo ≤ i < hi. Potential energy
// of uniform fields is gauge-dependent; it is not accumulated.
//
//mw:hotpath
func (fl Field) AccumulateRange(s *atom.System, lo, hi int, f []vec.Vec3) {
	n := len(f)
	charge, mass := s.Charge[:n], s.Mass[:n]
	if lo < 0 || hi > n {
		panic("forces: field range outside force array")
	}
	for i := lo; i < hi; i++ {
		fi := f[i]
		if q := charge[i]; q != 0 {
			fi = fi.AddScaled(q, fl.E)
		}
		if fl.G != vec.Zero {
			// F = m·G / ForceToAccel so the resulting acceleration is G.
			fi = fi.AddScaled(mass[i]/units.ForceToAccel, fl.G)
		}
		f[i] = fi
	}
}

// IsZero reports whether the field exerts no force.
//
//mw:hotpath
func (fl Field) IsZero() bool { return fl.E == vec.Zero && fl.G == vec.Zero }
