package main

import (
	"fmt"
	"time"

	"mw/internal/atom"
	"mw/internal/cells"
	"mw/internal/core"
	"mw/internal/forces"
	"mw/internal/vec"
)

// probeReps is how many timed calls each kernel probe makes; the probe
// reports their median.
const probeReps = 41

// timeCalls runs prep (untimed) then fn (timed) probeReps times after one
// warm-up call and returns the median duration in microseconds.
func timeCalls(prep, fn func()) float64 {
	us := make([]float64, probeReps)
	for i := -1; i < probeReps; i++ {
		if prep != nil {
			prep()
		}
		t := time.Now()
		fn()
		if i >= 0 {
			us[i] = micros(time.Since(t))
		}
	}
	return median(us)
}

// ljRung names the LJ kernel core.New picks for cfg on s. It mirrors the
// engine's selection so the probe times the kernel the run actually used.
func ljRung(s *atom.System, cfg core.Config) string {
	switch {
	case cfg.Cluster && cfg.Reorder && forces.HaveClusterSIMD && !s.Box.Periodic:
		return "cluster-simd"
	case cfg.Cluster && cfg.Reorder:
		return "cluster-fast"
	case cfg.Cluster:
		return "cluster-ref"
	case s.Excl.Len() > 0:
		return "range-list"
	case cfg.Reorder && !anyFixed(s):
		return "range-list-fast"
	}
	return "range-list-noexcl"
}

func anyFixed(s *atom.System) bool {
	for _, f := range s.Fixed {
		if f {
			return true
		}
	}
	return false
}

// mortonOrder is the gather permutation that sorts s's atoms into Morton
// cell order on grid g — the order the engine's reorder pass applies.
func mortonOrder(g *cells.Grid, s *atom.System) []int32 {
	rank := g.MortonRanks()
	counts := make([]int32, g.NumCells()+1)
	keys := make([]int32, s.N())
	for i, p := range s.Pos {
		keys[i] = rank[g.CellIndexOf(p)]
		counts[keys[i]+1]++
	}
	for r := 1; r < len(counts); r++ {
		counts[r] += counts[r-1]
	}
	order := make([]int32, s.N())
	for i, k := range keys {
		order[counts[k]] = int32(i)
		counts[k]++
	}
	return order
}

// probeLayers times the cells, atom and forces layers from outside on a
// state captured mid-run: each public call is made directly, over the whole
// atom range, and reported as the median of probeReps calls.
func probeLayers(rep *report, s *atom.System, cfg core.Config) error {
	n := s.N()
	rng := cfg.LJCutoff + cfg.Skin
	g := cells.NewGrid(s.Box, rng)
	lj := forces.NewLJ(s.Elements, cfg.LJCutoff)
	f := make([]vec.Vec3, n)
	zero := func() {
		for i := range f {
			f[i] = vec.Zero
		}
	}
	rung := ljRung(s, cfg)
	rep.note("lj rung: %s", rung)

	var cl cells.ClusterList
	var rl cells.RangeList
	var build func()
	if cfg.Cluster {
		build = func() { g.Assign(s); g.BuildClusterRange(s, rng, 0, n, &cl) }
	} else {
		build = func() { g.Assign(s); g.BuildRange(s, rng, 0, n, &rl) }
	}
	rep.metric("cells.build_us", timeCalls(nil, build), "us", "Grid.Assign + list build, all atoms")

	order := mortonOrder(g, s)
	var ro atom.Reorderer
	var c *atom.System
	var reorderErr error
	us := timeCalls(func() { c = s.Clone() }, func() {
		if err := ro.Apply(c, order); err != nil {
			reorderErr = err
		}
	})
	if reorderErr != nil {
		return fmt.Errorf("atom.reorder_us: %w", reorderErr)
	}
	rep.metric("atom.reorder_us", us, "us", "Reorderer.Apply, Morton order")

	build()
	var kernel func()
	var pairs, useful float64
	usefulDesc := "masked pairs / 16 per cluster-pair entry"
	switch rung {
	case "cluster-simd", "cluster-fast", "cluster-ref":
		p := cl.Pairs()
		pairs, useful = float64(p), float64(p)/float64(16*len(cl.Entries))
		kernel = func() { lj.AccumulateClusterList(s, &cl, f) }
		if rung == "cluster-fast" {
			kernel = func() { lj.AccumulateClusterListFast(s, &cl, f) }
		}
		if rung == "cluster-simd" {
			var cc cells.ClusterCoords
			var scr forces.ClusterScratch
			cc.Pack(s)
			kernel = func() { lj.AccumulateClusterListSIMD(s, &cc, &cl, &scr, f) }
		}
	default:
		pairs = float64(rl.Len())
		useful = inCutoff(s, &rl, cfg.LJCutoff) / pairs
		usefulDesc = "listed pairs within the cutoff"
		kernel = func() { lj.AccumulateRangeList(s, &rl, f) }
		switch rung {
		case "range-list-fast":
			kernel = func() { lj.AccumulateRangeListFast(s, &rl, f) }
		case "range-list-noexcl":
			kernel = func() { lj.AccumulateRangeListNoExcl(s, &rl, f) }
		}
	}
	ljUS := timeCalls(zero, kernel)
	rep.metric("forces.lj_us", ljUS, "us", rung+", all atoms")
	rep.metric("forces.lj_ns_per_pair", ljUS*1e3/pairs, "ns", fmt.Sprintf("%.0f listed pairs", pairs))
	rep.metric("forces.lj_useful_frac", useful, "ratio", usefulDesc)

	charged := s.ChargedIndices()
	cpairs := float64(len(charged)) * float64(len(charged)-1) / 2
	if cpairs == 0 {
		rep.metric("forces.coulomb_us", 0, "us", "no charged atoms")
		rep.metric("forces.coulomb_ns_per_pair", 0, "ns", "no charged atoms")
		return nil
	}
	soft := cfg.CoulombSoftening
	if soft == 0 {
		soft = 0.05 // the engine default
	}
	coul := forces.Coulomb{Softening: soft}
	cUS := timeCalls(zero, func() { coul.Accumulate(s, charged, f) })
	rep.metric("forces.coulomb_us", cUS, "us", fmt.Sprintf("%d charged atoms", len(charged)))
	rep.metric("forces.coulomb_ns_per_pair", cUS*1e3/cpairs, "ns", fmt.Sprintf("%.0f pairs", cpairs))
	return nil
}

// inCutoff counts the range-list pairs that lie within the LJ cutoff — the
// pairs that contribute force; the rest sit in the skin.
func inCutoff(s *atom.System, rl *cells.RangeList, cutoff float64) float64 {
	c2 := cutoff * cutoff
	var k float64
	for i := rl.Lo; i < rl.Hi; i++ {
		for _, j := range rl.Of(i) {
			if s.Box.MinImage(s.Pos[i].Sub(s.Pos[j])).Norm2() < c2 {
				k++
			}
		}
	}
	return k
}
