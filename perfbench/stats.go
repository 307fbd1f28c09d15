package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 < q ≤ 1) of sorted values by the
// nearest-rank rule: the smallest value with at least q·n values at or
// below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(0, min(rank(q, len(sorted)), len(sorted))-1)]
}

// rank is the 1-based nearest rank of the q-quantile among n values. The
// tolerance keeps q·n from rounding up past a whole number (0.999·10000
// is 9990.000000000002 in floating point).
func rank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailLadder lists the percentiles the benchmark prints, highest first. A
// run prints the highest one with at least minBeyond samples above it, so
// a tail figure always rests on at least that many samples.
var tailLadder = []float64{99.9, 99, 90, 50}

const minBeyond = 10

// tailPercentile picks the percentile to report for n samples, and the
// number of samples beyond it. ok is false when even the median has fewer
// than minBeyond samples above it.
func tailPercentile(n int) (pct float64, beyond int, ok bool) {
	for _, p := range tailLadder {
		if b := n - rank(p/100, n); b >= minBeyond {
			return p, b, true
		}
	}
	return 0, 0, false
}
