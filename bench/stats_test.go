package main

import (
	"math"
	"testing"
)

func TestHighestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // 10 beyond p99.9
		{9999, 99, true},    // p99.9 leaves 9
		{1000, 99, true},
		{999, 95, true}, // p99 leaves 9
		{200, 95, true},
		{199, 90, true},
		{100, 90, true},
		{40, 75, true},
		{39, 0, false},
		{0, 0, false},
	} {
		got, ok := highestTail(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestTail(%d) = %g, %v; want %g, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestTailRefusesUnsupportedPercentile(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(len(xs) - i)
	}
	if _, err := tail(xs, 99); err == nil {
		t.Fatal("p99 of 999 samples: want an error, 9 samples lie beyond it")
	}
	xs = append(xs, 1000)
	v, err := tail(xs, 99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %g, %v; want 990", v, err)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which computes the spreads a benchmark
// consumer applies the bounds to.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %g, want 1", s)
	}
}
