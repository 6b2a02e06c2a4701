package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly above a percentile
// before it is reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// pct is one percentile of a sample set, with the count it came from.
type pct struct {
	Value float64
	N     int // samples in the set
}

// percentile returns the nearest-rank q-quantile of xs. It refuses, with an
// error naming the shortfall, when fewer than minBeyond samples lie above
// the rank: such a "p99" would be a single extreme sample, not a tail.
// xs is sorted in place.
func percentile(xs []float64, q float64) (pct, error) {
	n := len(xs)
	if q <= 0 || q >= 1 {
		return pct{}, fmt.Errorf("quantile %g outside (0, 1)", q)
	}
	if n == 0 {
		return pct{}, fmt.Errorf("p%g of an empty sample set", q*100)
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if beyond := n - 1 - k; beyond < minBeyond {
		return pct{}, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)",
			q*100, n, beyond, minBeyond)
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	return pct{Value: xs[k], N: n}, nil
}

// median is percentile(xs, 0.5) for sample sets whose size the caller
// controls (repetition counts, not workload samples); it never refuses.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean is the arithmetic mean of xs (0 for an empty set).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
