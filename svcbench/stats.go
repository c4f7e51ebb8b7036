package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: fewer, and the figure is one or two outliers.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by nearest
// rank. It refuses when fewer than minBeyond samples lie beyond it, so a p99
// needs 1000 samples and a p90 needs 100.
func percentile(xs []float64, p int) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %d out of range (0,100)", p)
	}
	n := len(xs)
	rank := (p*n + 99) / 100 // ceil(p·n/100), in integers so 99·1000 stays exact
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples leaves %d beyond it, want at least %d", p, n, n-rank, minBeyond)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

// median returns the middle value of xs (the mean of the middle two for an
// even count); NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
