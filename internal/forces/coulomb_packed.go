package forces

import (
	"mw/internal/atom"
	"mw/internal/vec"
)

// coulPadPos is the coordinate of every padding lane in CoulombCoords: far
// from any atom, so a padding pair has a finite, nonzero r² and — with its
// zero charge — contributes exact zeros.
const coulPadPos = 1e6

// CoulombCoords is the padded SoA copy of the charged atoms that the packed
// Coulomb kernel (AccumulateRangeSIMD) reads: entry k holds atom charged[k].
// At least three padding lanes follow the N real entries, so the kernel's
// 4-lane unaligned loads starting at any real entry stay inside the arrays.
type CoulombCoords struct {
	X, Y, Z, Q []float64
	N          int // real (charged) entries
}

// Pack copies the positions and charges of the charged atoms into c. The
// engine repacks serially at the start of every force phase, like
// cells.ClusterCoords.
//
//mw:hotpath
func (c *CoulombCoords) Pack(s *atom.System, charged []int32) {
	n := len(charged)
	np := (n + 6) &^ 3 // ≥ n+3, a multiple of 4
	if cap(c.X) < np {
		c.X = make([]float64, np)
		c.Y = make([]float64, np)
		c.Z = make([]float64, np)
		c.Q = make([]float64, np)
	}
	x, y, z, q := c.X[:np], c.Y[:np], c.Z[:np], c.Q[:np]
	c.X, c.Y, c.Z, c.Q, c.N = x, y, z, q, n
	pos := s.Pos
	charge := s.Charge[:len(pos)]
	for k, ci := range charged {
		i := int(ci)
		if uint(k) >= uint(len(x)) || uint(i) >= uint(len(pos)) {
			break // corrupt charged index; valid lists never hit this
		}
		p := pos[i]
		x[k], y[k], z[k], q[k] = p.X, p.Y, p.Z, charge[i]
	}
	for k := n; k < len(x); k++ {
		x[k], y[k], z[k], q[k] = coulPadPos, coulPadPos, coulPadPos, 0
	}
}

// CoulombScratch is one worker's SoA force accumulator for the packed
// Coulomb kernel, indexed like CoulombCoords. A worker's Coulomb chunks all
// accumulate into the same scratch during the force phase; the reduce
// phase folds every worker's scratch into the reduced forces and zeroes it
// (FoldCoulombScratch). Memory is 24 B per charged atom per worker.
type CoulombScratch struct {
	fx, fy, fz []float64
}

// grow sizes the scratch for at least np packed entries (new entries are
// zero) and returns its three components. It allocates once per worker per
// run, so it stays out of line: the kernel wrapper that calls it keeps a
// runtime-call-free listing.
//
//mw:coldcall
//go:noinline
func (scr *CoulombScratch) grow(np int) (fx, fy, fz []float64) {
	if len(scr.fx) < np {
		scr.fx = make([]float64, np)
		scr.fy = make([]float64, np)
		scr.fz = make([]float64, np)
	}
	return scr.fx, scr.fy, scr.fz
}

// FoldCoulombScratch adds the packed kernel's forces for charged-list
// positions klo ≤ k < khi, summed over every worker's scratch, into
// f[charged[k]], and zeroes those scratch entries for the next force
// phase. Disjoint [klo, khi) ranges touch disjoint scratch entries and
// disjoint atoms, so reduce chunks may fold concurrently.
//
//mw:hotpath
func FoldCoulombScratch(scr []CoulombScratch, charged []int32, klo, khi int, f []vec.Vec3) {
	if klo < 0 || khi > len(charged) || klo >= khi {
		return
	}
	idx := charged[klo:khi]
	n := len(f)
	for w := range scr {
		sc := &scr[w]
		if len(sc.fx) < khi || len(sc.fy) < khi || len(sc.fz) < khi {
			continue // this worker never ran a Coulomb chunk
		}
		fx, fy, fz := sc.fx[klo:khi], sc.fy[klo:khi], sc.fz[klo:khi]
		for k := range fx {
			i := int(idx[k])
			if uint(i) >= uint(n) {
				continue
			}
			f[i].X += fx[k]
			f[i].Y += fy[k]
			f[i].Z += fz[k]
			fx[k], fy[k], fz[k] = 0, 0, 0
		}
	}
}
