package main

import (
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie beyond a percentile for
// it to describe a tail rather than a handful of outliers.
const minBeyond = 10

// dist is a sorted sample of one quantity.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// rank returns the 1-based nearest rank of percentile p in n samples:
// the smallest rank r with r/n >= p/100.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// pct returns the nearest-rank percentile p (0 < p <= 100) of the
// sample, or 0 for an empty one.
func (d dist) pct(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return d[rank(len(d), p)-1]
}

// beyond returns how many samples lie above the p-th percentile's rank.
func (d dist) beyond(p float64) int {
	if len(d) == 0 {
		return 0
	}
	return len(d) - rank(len(d), p)
}

// resolved reports whether at least minBeyond samples lie beyond the
// p-th percentile, so that it says something about the tail.
func (d dist) resolved(p float64) bool { return d.beyond(p) >= minBeyond }

// median of xs (nearest rank), 0 for none.
func median(xs []float64) float64 { return newDist(xs).pct(50) }

// mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
