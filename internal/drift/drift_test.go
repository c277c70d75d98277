package drift

import (
	"math"
	"math/rand"
	"testing"

	"iupdater/internal/loc"
)

// toy fingerprint matrix: 4 links, 3 locations, distinct column shapes.
var toyCols = [][]float64{
	{-50, -60, -55, -45},
	{-70, -48, -52, -58},
	{-44, -66, -61, -49},
}

func toyResidualizer() *Residualizer {
	ix := loc.NewIndexCols(4, 3, func(j int, dst []float64) { copy(dst, toyCols[j]) }, 0, loc.IndexConfig{})
	return NewResidualizerIndex(ix)
}

// residual is the staleness residual of y without its per-link terms.
func residual(r *Residualizer, y, scratch []float64) float64 {
	return r.ResidualAttributed(y, scratch, make([]float64, r.Links()))
}

func TestResidualExactMatchIsZero(t *testing.T) {
	r := toyResidualizer()
	scratch := make([]float64, 4)
	for j, col := range toyCols {
		if got := residual(r, col, scratch); got > 1e-12 {
			t.Errorf("column %d: residual %g, want 0", j, got)
		}
	}
}

func TestResidualIgnoresCommonMode(t *testing.T) {
	// A constant per-link offset (common-mode drift, TX power wander) must
	// not register as staleness: centering removes it.
	r := toyResidualizer()
	scratch := make([]float64, 4)
	y := make([]float64, 4)
	for i, v := range toyCols[1] {
		y[i] = v + 7.5
	}
	if got := residual(r, y, scratch); got > 1e-12 {
		t.Errorf("common-mode offset: residual %g, want 0", got)
	}
}

func TestResidualBestMatch(t *testing.T) {
	// A query exactly delta away on one link from its true column must
	// score sqrt(delta^2 * (1 - 1/m)) / sqrt(m)... computed directly: the
	// centered difference is delta on link 0 minus delta/m on every link.
	r := toyResidualizer()
	scratch := make([]float64, 4)
	y := append([]float64(nil), toyCols[0]...)
	const delta = 2.0
	y[0] += delta
	m := 4.0
	want := math.Sqrt(delta * delta * (1 - 1/m) / m)
	if got := residual(r, y, scratch); math.Abs(got-want) > 1e-12 {
		t.Errorf("one-link deviation: residual %g, want %g", got, want)
	}
	// The best match must still be the true column: a residual against
	// the other columns would be far larger.
	if got := residual(r, y, scratch); got > 3 {
		t.Errorf("residual %g suggests wrong best-match column", got)
	}
}

func TestResidualAllocationFree(t *testing.T) {
	r := toyResidualizer()
	scratch := make([]float64, 4)
	perLink := make([]float64, 4)
	y := append([]float64(nil), toyCols[0]...)
	y[1] += 1.5
	if allocs := testing.AllocsPerRun(200, func() {
		r.ResidualAttributed(y, scratch, perLink)
	}); allocs != 0 {
		t.Errorf("residual allocates %.1f per call, want 0", allocs)
	}
}

// noisyStream yields a deterministic pseudo-residual stream with the
// given mean and sigma.
func noisyStream(seed int64, mu, sigma float64) func() float64 {
	rng := rand.New(rand.NewSource(seed))
	return func() float64 { return mu + sigma*rng.NormFloat64() }
}

func TestMeanShiftDetectsShiftNotNoise(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		d := NewMeanShift(MeanShiftConfig{Baseline: 200, Window: 64, K: 5, MinShiftDB: 0.3})
		next := noisyStream(seed, 1.0, 0.1)
		// Calibration plus a long stationary stretch: no flags.
		for i := 0; i < 5000; i++ {
			if d.Observe(next()) {
				t.Fatalf("seed %d: false positive at stationary sample %d (score %.2f)", seed, i, d.Score())
			}
		}
		if s := d.Score(); s >= 1 {
			t.Fatalf("seed %d: stationary score %.2f >= 1", seed, s)
		}
		// An abrupt persistent shift must flag within ~2 windows.
		shifted := noisyStream(seed+100, 2.0, 0.1)
		flaggedAt := -1
		for i := 0; i < 200; i++ {
			if d.Observe(shifted()) {
				flaggedAt = i
				break
			}
		}
		if flaggedAt < 0 || flaggedAt > 128 {
			t.Fatalf("seed %d: shift flagged at %d, want within 128", seed, flaggedAt)
		}
		if s := d.Score(); s < 1 {
			t.Fatalf("seed %d: flagged but score %.2f < 1", seed, s)
		}
		// Reset re-calibrates on the new level: no flags afterwards.
		d.Reset()
		for i := 0; i < 1000; i++ {
			if d.Observe(shifted()) {
				t.Fatalf("seed %d: flag after re-calibration at %d", seed, i)
			}
		}
	}
}

func TestDetectorsAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    *MeanShift
	}{
		{"MeanShift", NewMeanShift(MeanShiftConfig{})},
	} {
		next := noisyStream(11, 1.0, 0.1)
		for i := 0; i < 500; i++ { // past calibration
			tc.d.Observe(next())
		}
		if allocs := testing.AllocsPerRun(200, func() {
			tc.d.Observe(next())
			tc.d.Score()
		}); allocs != 0 {
			t.Errorf("%s: %.1f allocs per observe, want 0", tc.name, allocs)
		}
	}
}

func TestDetectorsDeterministic(t *testing.T) {
	run := func(d *MeanShift) []bool {
		next := noisyStream(3, 1.0, 0.2)
		out := make([]bool, 3000)
		for i := range out {
			r := next()
			if i > 1500 {
				r += 1.5
			}
			out[i] = d.Observe(r)
		}
		return out
	}
	a := run(NewMeanShift(MeanShiftConfig{}))
	b := run(NewMeanShift(MeanShiftConfig{}))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("MeanShift diverges at %d", i)
		}
	}
}

func TestBaselineExportImportSkipsCalibration(t *testing.T) {
	// Calibrate a detector on a stationary stream, export the floor,
	// import it into a fresh detector (a process restart): the restored
	// detector must flag a shift without re-running the 200-sample
	// calibration window, and must not false-positive on the floor.
	next := noisyStream(11, 1.0, 0.1)
	src := NewMeanShift(MeanShiftConfig{Baseline: 200, Window: 64, K: 5, MinShiftDB: 0.3})
	for i := 0; i < 400; i++ {
		src.Observe(next())
	}
	mu, sigma, ok := src.Baseline()
	if !ok {
		t.Fatal("source detector not calibrated after 400 samples")
	}
	if mu < 0.9 || mu > 1.1 {
		t.Fatalf("exported mu %.3f far from the true floor 1.0", mu)
	}

	restored := NewMeanShift(MeanShiftConfig{Baseline: 200, Window: 64, K: 5, MinShiftDB: 0.3})
	if _, _, ok := restored.Baseline(); ok {
		t.Fatal("fresh detector claims to be calibrated")
	}
	restored.SetBaseline(mu, sigma)
	if rmu, _, ok := restored.Baseline(); !ok || rmu != mu {
		t.Fatalf("Baseline after SetBaseline = %.3f ok=%v", rmu, ok)
	}
	// Stationary traffic at the restored floor: no flags.
	for i := 0; i < 1000; i++ {
		if restored.Observe(next()) {
			t.Fatalf("false positive at %d after baseline import", i)
		}
	}
	// A shift flags within ~the window — far sooner than the 200-sample
	// calibration a cold detector would need first.
	shifted := noisyStream(12, 2.0, 0.1)
	flaggedAt := -1
	for i := 0; i < 200; i++ {
		if restored.Observe(shifted()) {
			flaggedAt = i
			break
		}
	}
	if flaggedAt < 0 || flaggedAt > 128 {
		t.Fatalf("restored detector flagged at %d, want within 128", flaggedAt)
	}
}

func TestSetBaselineFloorsSigma(t *testing.T) {
	d := NewMeanShift(MeanShiftConfig{MinSigma: 0.05})
	d.SetBaseline(1.0, 0) // a zero sigma would make every threshold zero
	if _, sigma, ok := d.Baseline(); !ok || sigma < 0.05 {
		t.Fatalf("sigma %.3f not floored to MinSigma", sigma)
	}
}
