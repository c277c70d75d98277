package core

import (
	"testing"

	"iupdater/internal/mat"
	"iupdater/internal/testbed"
)

// parallelInput builds one realistic reconstruction input (45-day drift
// on the office testbed) for the parallel-sweep tests.
func parallelInput(t *testing.T) Input {
	t.Helper()
	s := testbed.NewSurveyor(testbed.Office(), 11)
	fp0, _ := s.FullSurvey(0, testbed.TraditionalSamples)
	up, err := NewUpdater(fp0, DefaultUpdaterConfig())
	if err != nil {
		t.Fatal(err)
	}
	const tU = 45 * testbed.Day
	mask := s.Mask()
	xb := s.NoDecreaseScan(tU, testbed.IUpdaterSamples)
	xr, _ := s.ReferenceSurvey(tU, up.ReferenceLocations(), testbed.IUpdaterSamples)
	return Input{
		XB:       xb,
		B:        mask.B,
		XR:       xr,
		Z:        up.z,
		Links:    fp0.Links,
		PerStrip: fp0.PerStrip,
	}
}

func reconstructWith(t *testing.T, in Input, opts ...Option) *mat.Dense {
	t.Helper()
	res, err := NewReconstructor(opts...).Reconstruct(in)
	if err != nil {
		t.Fatal(err)
	}
	return res.X
}

func TestParallelSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	// The parallel Gauss-Seidel sweep reads its couplings from a
	// pre-sweep snapshot, so the result must be bit-identical for every
	// worker count.
	// Concurrency 0 (GOMAXPROCS) must match too, whatever it resolves
	// to on this machine — even a single worker routes through the
	// snapshot path.
	in := parallelInput(t)
	base := reconstructWith(t, in, WithWarmStart(true), WithConcurrency(2))
	for _, c := range []int{0, 3, 5, 8} {
		if x := reconstructWith(t, in, WithWarmStart(true), WithConcurrency(c)); !x.Equal(base) {
			t.Errorf("concurrency %d produced a different reconstruction than concurrency 2", c)
		}
	}
}

func TestParallelWithoutCouplingsMatchesSequential(t *testing.T) {
	// Without cross-solve couplings the row/column solves are fully
	// independent and the parallel sweep must match the sequential one
	// bit-for-bit.
	in := parallelInput(t)
	cases := []struct {
		name string
		opts []Option
	}{
		{"paper-variant", []Option{WithWarmStart(true), WithVariant(VariantPaper)}},
		{"no-constraint2", []Option{WithWarmStart(true), WithConstraint2(false)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := reconstructWith(t, in, tc.opts...)
			par := reconstructWith(t, in, append(append([]Option{}, tc.opts...), WithConcurrency(4))...)
			if !par.Equal(seq) {
				t.Error("parallel sweep differs from sequential without couplings")
			}
		})
	}
}

func TestParallelGaussSeidelStaysAccurate(t *testing.T) {
	// The snapshot (block-Jacobi) couplings follow a different iteration
	// order than sequential Gauss-Seidel but share its fixed point: the
	// converged reconstructions must agree to solver tolerance.
	in := parallelInput(t)
	seq := reconstructWith(t, in, WithWarmStart(true))
	par := reconstructWith(t, in, WithWarmStart(true), WithConcurrency(4))
	m, n := seq.Dims()
	var sum float64
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			d := seq.At(i, j) - par.At(i, j)
			if d < 0 {
				d = -d
			}
			sum += d
		}
	}
	if mean := sum / float64(m*n); mean > 0.1 {
		t.Errorf("parallel reconstruction deviates %.4f dB on average from sequential, want <= 0.1", mean)
	}
}

func TestParallelSweepRace(t *testing.T) {
	// Exercises the parallel sweeps with more workers than rows under
	// the race detector (CI runs the suite with -race): workers write
	// disjoint factor rows and read only sweep-invariant state.
	in := parallelInput(t)
	for _, opts := range [][]Option{
		{WithWarmStart(true), WithConcurrency(8)},
		{WithWarmStart(false), WithConcurrency(8)},
		{WithWarmStart(true), WithVariant(VariantPaper), WithConcurrency(8)},
	} {
		if x := reconstructWith(t, in, opts...); !x.IsFinite() {
			t.Fatal("parallel reconstruction produced non-finite values")
		}
	}
}
