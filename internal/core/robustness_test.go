package core

import (
	"math"
	"math/rand"
	"testing"

	"iupdater/internal/mat"
	"iupdater/internal/testbed"
)

// Failure-injection tests: the update pipeline must degrade gracefully
// when field measurements go wrong, not explode.

func TestReconstructRejectsNonFiniteInput(t *testing.T) {
	s := testbed.NewSurveyor(testbed.Office(), 31)
	fp0, _ := s.FullSurvey(0, testbed.TraditionalSamples)
	up, err := NewUpdater(fp0, DefaultUpdaterConfig())
	if err != nil {
		t.Fatal(err)
	}
	mask := s.Mask()
	xb := s.NoDecreaseScan(5*testbed.Day, 5)
	xr, _ := s.ReferenceSurvey(5*testbed.Day, up.ReferenceLocations(), 5)

	tests := []struct {
		name    string
		corrupt func()
		restore func()
	}{
		{
			"NaN in no-decrease scan",
			func() { xb.Set(2, 3, math.NaN()) },
			func() { xb.Set(2, 3, 0) },
		},
		{
			"Inf in reference matrix",
			func() { xr.Set(1, 1, math.Inf(1)) },
			func() { xr.Set(1, 1, -70) },
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tt.corrupt()
			defer tt.restore()
			if _, _, err := up.Update(xb, mask, xr, 5*testbed.Day); err == nil {
				t.Error("corrupted input accepted")
			}
		})
	}
}

func TestReconstructSurvivesDeadLink(t *testing.T) {
	// A link whose radio died between surveys reports a floor value
	// everywhere. The reconstruction must stay finite and the healthy
	// links' entries must stay accurate.
	const tU = 15 * testbed.Day
	s := testbed.NewSurveyor(testbed.Office(), 32)
	fp0, _ := s.FullSurvey(0, testbed.TraditionalSamples)
	up, err := NewUpdater(fp0, DefaultUpdaterConfig())
	if err != nil {
		t.Fatal(err)
	}
	mask := s.Mask()
	xb := s.NoDecreaseScan(tU, 5)
	xr, _ := s.ReferenceSurvey(tU, up.ReferenceLocations(), 5)

	const dead = 3
	_, n := xb.Dims()
	for j := 0; j < n; j++ {
		if mask.Known(dead, j) {
			xb.Set(dead, j, -100)
		}
	}
	for k := 0; k < len(up.ReferenceLocations()); k++ {
		xr.Set(dead, k, -100)
	}

	updated, res, err := up.Update(xb, mask, xr, tU)
	if err != nil {
		t.Fatalf("dead link broke the update: %v", err)
	}
	if !res.X.IsFinite() {
		t.Fatal("non-finite reconstruction")
	}
	truth := s.TrueFingerprint(tU)
	var healthyErr float64
	var cnt int
	for i := 0; i < 8; i++ {
		if i == dead {
			continue
		}
		for j := 0; j < n; j++ {
			if !mask.Known(i, j) {
				healthyErr += math.Abs(updated.X.At(i, j) - truth.X.At(i, j))
				cnt++
			}
		}
	}
	if mean := healthyErr / float64(cnt); mean > 4 {
		t.Errorf("healthy links' error %.2f dB after dead-link injection", mean)
	}
}

func TestReconstructBoundedUnderCorruptReference(t *testing.T) {
	// One reference column measured while a truck parked outside: +8 dB
	// bias on every link. The global error must stay bounded (the other
	// references and the constraints contain the damage).
	const tU = 15 * testbed.Day
	s := testbed.NewSurveyor(testbed.Office(), 33)
	fp0, _ := s.FullSurvey(0, testbed.TraditionalSamples)
	up, err := NewUpdater(fp0, DefaultUpdaterConfig())
	if err != nil {
		t.Fatal(err)
	}
	mask := s.Mask()
	xb := s.NoDecreaseScan(tU, 5)

	clean, _ := s.ReferenceSurvey(tU, up.ReferenceLocations(), 5)
	corrupt := clean.Clone()
	for i := 0; i < 8; i++ {
		corrupt.Add(i, 2, 8)
	}

	_, resClean, err := up.Update(xb, mask, clean, tU)
	if err != nil {
		t.Fatal(err)
	}
	_, resCorrupt, err := up.Update(xb, mask, corrupt, tU)
	if err != nil {
		t.Fatal(err)
	}
	truth := s.TrueFingerprint(tU)
	eClean := meanAbsDiff(resClean.X, truth.X)
	eCorrupt := meanAbsDiff(resCorrupt.X, truth.X)
	if eCorrupt > eClean+3 {
		t.Errorf("corrupt reference blew up the error: %.2f vs %.2f dB", eCorrupt, eClean)
	}
}

func TestChainedUpdatesStayBounded(t *testing.T) {
	// Fig 10's feedback loop: each update feeds the next correlation
	// acquisition. Five chained updates over three months must not
	// accumulate error.
	s := testbed.NewSurveyor(testbed.Office(), 34)
	fp0, _ := s.FullSurvey(0, testbed.TraditionalSamples)
	up, err := NewUpdater(fp0, DefaultUpdaterConfig())
	if err != nil {
		t.Fatal(err)
	}
	mask := s.Mask()
	var prevErr float64
	for k, tU := range testbed.UpdateTimestamps() {
		xb := s.NoDecreaseScan(tU, 5)
		xr, _ := s.ReferenceSurvey(tU, up.ReferenceLocations(), 5)
		updated, res, err := up.Update(xb, mask, xr, tU)
		if err != nil {
			t.Fatalf("update %d: %v", k, err)
		}
		truth := s.TrueFingerprint(tU)
		e := maskedMeanAbs(res.X, truth.X, mask, false)
		if e > 3.5 {
			t.Errorf("update %d (t=%.0f d): error %.2f dB", k, tU/testbed.Day, e)
		}
		if k > 0 && e > prevErr*4+1 {
			t.Errorf("update %d error %.2f dB ballooned from %.2f", k, e, prevErr)
		}
		prevErr = e
		if up, err = NewUpdater(updated, DefaultUpdaterConfig()); err != nil {
			t.Fatalf("refresh %d: %v", k, err)
		}
	}
}

func TestReconstructAllMaskedKnown(t *testing.T) {
	// Degenerate but legal: everything known (no affected entries). The
	// solver must reproduce the measurements.
	rng := mat.RandomNormal(4, 12, newTestRand())
	b := mat.New(4, 12)
	for i := 0; i < 4; i++ {
		for j := 0; j < 12; j++ {
			b.Set(i, j, 1)
		}
	}
	rc := NewReconstructor(WithWarmStart(true), WithConstraint1(false), WithConstraint2(false))
	res, err := rc.Reconstruct(Input{XB: rng, B: b, Links: 4, PerStrip: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := meanAbsDiff(res.X, rng); got > 0.05 {
		t.Errorf("fully observed reconstruction off by %.3f", got)
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(99)) }
