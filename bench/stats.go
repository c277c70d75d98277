package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 drawn from 50 samples is the largest
// sample, not a tail estimate.
const minBeyond = 10

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The tolerance keeps float rounding from pushing an exact rank up
// (99.9/100*10000 is 9990.000000000002).
func rank(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	return sorted[min(max(rank(n, p)-1, 0), n-1)]
}

// beyond is how many of n samples lie strictly above the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// supported reports whether n samples carry the p-th percentile.
func supported(n int, p float64) bool { return n > 0 && beyond(n, p) >= minBeyond }

// tailPercentiles are the tail percentiles a latency is reported at,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// highestTail returns the highest of tailPercentiles that n samples
// support, and false when even the lowest is unsupported.
func highestTail(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if supported(n, p) {
			return p, true
		}
	}
	return 0, false
}

// tail returns the p-th percentile of samples (sorted in place), or an
// error naming the sample count when fewer than minBeyond samples lie
// beyond it.
func tail(samples []float64, p float64) (float64, error) {
	if !supported(len(samples), p) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; %d samples leave %d", p, minBeyond, len(samples), max(beyond(len(samples), p), 0))
	}
	sort.Float64s(samples)
	return percentile(samples, p), nil
}

// median returns the median of xs without modifying it (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the method
// of Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// spreads computed here match those computed by tools using Python.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
