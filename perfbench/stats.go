package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidate tail percentiles, lowest first. A
// timing's tail is the highest of them with at least ten samples beyond
// it (nearest-rank), so the figure never rests on a handful of outliers.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// tailPct returns the highest candidate percentile that leaves at least
// ten of n samples beyond it.
func tailPct(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// rank is the 1-based nearest-rank index of percentile p over n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// pctl returns the nearest-rank percentile p of xs (xs is not modified).
func pctl(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

func median(xs []float64) float64 { return pctl(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a counter that never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
