//go:build amd64

package forces

import "mw/internal/units"

// coulArgs is the argument block of coulRowAVX2. The field offsets are
// hard-coded in coulomb_amd64.s — keep the two in sync.
type coulArgs struct {
	x, y, z, q *float64
	fx, fy, fz *float64
	lo, hi, n  int64
	soft2, k   float64
	pe         [4]float64
}

// coulRowAVX2 is the packed Coulomb row kernel in coulomb_amd64.s. The
// stub belongs to the hot-path closure even though its body is assembly;
// the vecasm gate censuses the .s source directly.
//
//mw:hotpath
//go:noescape
func coulRowAVX2(a *coulArgs)

// AccumulateRangeSIMD is the packed-AVX2 form of AccumulateRange: it adds
// the forces of all half pairs (k, l), l > k, lo ≤ k < hi, of the charged
// atoms packed in cc into scr, indexed like cc, and returns their potential
// energy. The per-pair algebra is the reference's, lane for lane — d = pj −
// pi, r² = dx² + dy² + dz² + soft² with separate multiplies and adds,
// r = √r², e = (K·qi)·qj / r, fs = e / r² by true division — and pairs
// with r² = 0 contribute exact zeros where the reference skips them. Only
// the accumulation order differs (4-lane partial sums), so energies and
// forces agree with the reference at the rounding level, not bitwise.
//
// Preconditions (the engine enforces them when picking this kernel):
// HaveClusterSIMD, a non-periodic box, and cc packed for the current
// positions. scr is grown on first use; its contents are left for
// FoldCoulombScratch.
//
//mw:hotpath
func (c Coulomb) AccumulateRangeSIMD(cc *CoulombCoords, lo, hi int, scr *CoulombScratch) float64 {
	n := cc.N
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	x, y, z, q := cc.X, cc.Y, cc.Z, cc.Q
	np := len(x)
	if lo >= hi || np < n+3 || len(y) != np || len(z) != np || len(q) != np {
		return 0
	}
	fx, fy, fz := scr.grow(np)
	if np == 0 || len(fx) < np || len(fy) < np || len(fz) < np {
		return 0 // unreachable: np ≥ n+3; the check hands the prover x[0]
	}
	a := coulArgs{
		x: &x[0], y: &y[0], z: &z[0], q: &q[0],
		fx: &fx[0], fy: &fy[0], fz: &fz[0],
		lo: int64(lo), hi: int64(hi), n: int64(n),
		soft2: c.Softening * c.Softening, k: units.CoulombK,
	}
	coulRowAVX2(&a)
	return (a.pe[0] + a.pe[1]) + (a.pe[2] + a.pe[3])
}
