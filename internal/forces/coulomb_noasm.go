//go:build !amd64

package forces

// AccumulateRangeSIMD exists off amd64 only to keep call sites portable:
// HaveClusterSIMD is false here, so the engine never selects the packed
// Coulomb kernel and keeps AccumulateRange.
func (c Coulomb) AccumulateRangeSIMD(cc *CoulombCoords, lo, hi int, scr *CoulombScratch) float64 {
	_, _, _, _ = cc, lo, hi, scr
	panic("forces: packed Coulomb kernel requires amd64 with AVX2")
}
