package testbed

import (
	"math"
	"testing"

	"iupdater/internal/geom"
	"iupdater/internal/mat"
	"iupdater/internal/rf"
)

func TestEnvironmentPresetsMatchPaper(t *testing.T) {
	tests := []struct {
		env       Environment
		links     int
		cells     int
		multipath string
	}{
		{Office(), 8, 96, "medium"},
		{Library(), 6, 72, "high"},
		{Hall(), 8, 120, "low"},
	}
	for _, tt := range tests {
		t.Run(tt.env.Name, func(t *testing.T) {
			if got := tt.env.NumLinks(); got != tt.links {
				t.Errorf("links = %d, want %d", got, tt.links)
			}
			if got := tt.env.NumCells(); got != tt.cells {
				t.Errorf("cells = %d, want %d", got, tt.cells)
			}
			if tt.env.Multipath != tt.multipath {
				t.Errorf("multipath = %q, want %q", tt.env.Multipath, tt.multipath)
			}
		})
	}
}

func TestMultipathOrdering(t *testing.T) {
	h, o, l := Hall(), Office(), Library()
	if !(h.Radio.MultipathSigmaDB < o.Radio.MultipathSigmaDB &&
		o.Radio.MultipathSigmaDB < l.Radio.MultipathSigmaDB) {
		t.Error("multipath richness not ordered hall < office < library")
	}
	if !(h.Radio.TargetPerturbSigmaDB < o.Radio.TargetPerturbSigmaDB &&
		o.Radio.TargetPerturbSigmaDB < l.Radio.TargetPerturbSigmaDB) {
		t.Error("target perturbation not ordered hall < office < library")
	}
}

func TestTimestamps(t *testing.T) {
	ts := Timestamps()
	labels := TimestampLabels()
	if len(ts) != 6 || len(labels) != 6 {
		t.Fatalf("want 6 timestamps, got %d/%d", len(ts), len(labels))
	}
	if ts[0] != 0 {
		t.Error("first timestamp must be the original time")
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Error("timestamps not increasing")
		}
	}
	if ts[5] != 90*Day {
		t.Errorf("last timestamp = %v, want 90 days", ts[5])
	}
	if len(UpdateTimestamps()) != 5 || UpdateTimestamps()[0] != 3*Day {
		t.Error("UpdateTimestamps must drop the original time")
	}
}

func TestSurveySecondsMatchesPaperArithmetic(t *testing.T) {
	// §VI-C: traditional 94-location survey with 50 samples:
	// 93*5 + 50*0.5*94 = 2815 s (= 46.9 min).
	if got := SurveySeconds(94, 50); math.Abs(got-2815) > 1e-9 {
		t.Errorf("traditional = %v s, want 2815", got)
	}
	// iUpdater: 8 locations, 5 samples: 7*5 + 5*0.5*8 = 55 s.
	if got := SurveySeconds(8, 5); math.Abs(got-55) > 1e-9 {
		t.Errorf("iUpdater = %v s, want 55", got)
	}
	if got := SurveySeconds(0, 50); got != 0 {
		t.Errorf("empty survey = %v, want 0", got)
	}
}

func TestPaperLaborSavings(t *testing.T) {
	// §VI-C reports 97.9% saving vs the 50-sample traditional survey and
	// 92.1% vs a 5-sample traditional survey.
	trad50 := TraditionalUpdateSeconds(94, 50)
	trad5 := TraditionalUpdateSeconds(94, 5)
	ours := IUpdaterUpdateSeconds(8, 5)
	s50 := SavingFraction(trad50, ours)
	if s50 < 0.975 || s50 > 0.985 {
		t.Errorf("saving vs 50-sample = %.3f, want ≈0.979", s50)
	}
	s5 := SavingFraction(trad5, ours)
	if s5 < 0.915 || s5 > 0.927 {
		t.Errorf("saving vs 5-sample = %.3f, want ≈0.921", s5)
	}
}

func TestLaborScalingShape(t *testing.T) {
	// Fig 20: traditional cost grows ~quadratically to tens of hours;
	// iUpdater stays far below one hour even at 10x edge length.
	pts := LaborScaling(94, 8, []int{2, 4, 6, 8, 10})
	for i, p := range pts {
		if p.IUpdaterHours >= p.TraditionalHours {
			t.Errorf("scale %d: iUpdater %.2f h not below traditional %.2f h",
				p.Scale, p.IUpdaterHours, p.TraditionalHours)
		}
		if i > 0 && (p.TraditionalHours <= pts[i-1].TraditionalHours ||
			p.IUpdaterHours <= pts[i-1].IUpdaterHours) {
			t.Error("costs must grow with area")
		}
	}
	last := pts[len(pts)-1]
	if last.TraditionalHours < 50 || last.TraditionalHours > 100 {
		t.Errorf("traditional at 10x = %.1f h, want ~78 h", last.TraditionalHours)
	}
	if last.IUpdaterHours > 0.5 {
		t.Errorf("iUpdater at 10x = %.2f h, want < 0.5 h", last.IUpdaterHours)
	}
}

func TestFullSurveyShape(t *testing.T) {
	s := NewSurveyor(Office(), 5)
	fp, labor := s.FullSurvey(0, 5)
	m, n := fp.X.Dims()
	if m != 8 || n != 96 {
		t.Fatalf("survey dims = %dx%d", m, n)
	}
	if labor.Locations != 96 || labor.SamplesPerLocation != 5 {
		t.Errorf("labor = %+v", labor)
	}
	if labor.Seconds != SurveySeconds(96, 5) {
		t.Errorf("labor seconds = %v", labor.Seconds)
	}
	if !fp.X.IsFinite() {
		t.Error("survey contains non-finite values")
	}
	// All readings are plausible dBm values.
	if fp.X.Max() > -30 || fp.X.Min() < -110 {
		t.Errorf("implausible RSS range [%v, %v]", fp.X.Min(), fp.X.Max())
	}
}

func TestFullSurveyCloseToTruth(t *testing.T) {
	s := NewSurveyor(Office(), 6)
	fp, _ := s.FullSurvey(0, TraditionalSamples)
	truth := s.TrueFingerprint(0)
	diff := mat.SubM(fp.X, truth.X)
	var sum float64
	m, n := diff.Dims()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			sum += math.Abs(diff.At(i, j))
		}
	}
	meanAbs := sum / float64(m*n)
	// 50-sample averaging suppresses most but not all short-term noise
	// (the common-mode component is correlated within a dwell).
	if meanAbs > 1.5 {
		t.Errorf("mean |survey - truth| = %.2f dB, want < 1.5", meanAbs)
	}
}

func TestReferenceSurvey(t *testing.T) {
	s := NewSurveyor(Office(), 7)
	refs := []int{6, 18, 30, 42, 54, 66, 78, 90}
	xr, labor := s.ReferenceSurvey(45*Day, refs, IUpdaterSamples)
	m, n := xr.Dims()
	if m != 8 || n != len(refs) {
		t.Fatalf("XR dims = %dx%d", m, n)
	}
	if labor.Locations != len(refs) {
		t.Errorf("labor locations = %d", labor.Locations)
	}
	// Reference columns should be close to the true columns at that time.
	truth := s.TrueFingerprint(45 * Day)
	for k, j := range refs {
		for i := 0; i < m; i++ {
			if d := math.Abs(xr.At(i, k) - truth.X.At(i, j)); d > 5 {
				t.Errorf("ref col %d link %d off truth by %.1f dB", k, i, d)
			}
		}
	}
}

func TestMaskStructure(t *testing.T) {
	s := NewSurveyor(Office(), 8)
	mask := s.Mask()
	rows, cols := mask.B.Dims()
	known := 0
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if v := mask.B.At(i, j); v != 0 && v != 1 {
				t.Fatalf("mask entry (%d,%d) = %v, want 0 or 1", i, j, v)
			}
			if mask.Known(i, j) {
				known++
			}
		}
	}
	// Own-strip entries are always unknown (the target on the direct path
	// certainly changes the reading).
	g := s.Channel.Grid()
	for i := 0; i < g.Links; i++ {
		for u := 0; u < g.PerStrip; u++ {
			if mask.Known(i, g.CellIndex(i, u)) {
				t.Fatalf("own-strip entry (%d, pos %d) marked known", i, u)
			}
		}
	}
	// A sizable fraction of the matrix is known (the whole point of the
	// no-decrease measurements).
	frac := float64(known) / float64(8*96)
	if frac < 0.4 || frac > 0.9 {
		t.Errorf("known fraction = %.2f, want 0.4..0.9", frac)
	}
}

func TestNoDecreaseScanMatchesMaskAndBaseline(t *testing.T) {
	s := NewSurveyor(Office(), 9)
	mask := s.Mask()
	xb := s.NoDecreaseScan(5*Day, IUpdaterSamples)
	truth := s.TrueFingerprint(5 * Day)
	m, n := xb.Dims()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if !mask.Known(i, j) {
				if xb.At(i, j) != 0 {
					t.Fatalf("unknown entry (%d,%d) non-zero", i, j)
				}
				continue
			}
			// Known entries read the current baseline: close to truth
			// because the target effect there is ~0.
			if d := math.Abs(xb.At(i, j) - truth.X.At(i, j)); d > 4 {
				t.Errorf("no-decrease entry (%d,%d) off truth by %.1f dB", i, j, d)
			}
		}
	}
}

func TestMeasureOnline(t *testing.T) {
	s := NewSurveyor(Office(), 10)
	p := geom.Point{X: 6.2, Y: 4.7}
	y := s.MeasureOnline(p, 1000, 5)
	if len(y) != 8 {
		t.Fatalf("len(y) = %d", len(y))
	}
	for i, v := range y {
		if v > -30 || v < -110 {
			t.Errorf("y[%d] = %v dBm implausible", i, v)
		}
	}
	// The links near the target must read lower than their baseline.
	cell := s.Channel.Grid().CellAt(p)
	strip := s.Channel.Grid().Strip(cell)
	base := s.Channel.CleanRSS(strip, -1) + s.Channel.Drift(strip, 1000)
	if y[strip] >= base {
		t.Errorf("own link reading %v not below baseline %v", y[strip], base)
	}
}

// sampleMean is the per-entry reference for the survey paths: n
// readings of rf.Channel.Sample spaced SampleInterval apart, summed in
// time order.
func sampleMean(c *rf.Channel, i, j int, t float64, n int) float64 {
	var s float64
	for k := 0; k < n; k++ {
		s += c.Sample(i, j, t+SampleInterval*float64(k))
	}
	return s / float64(n)
}

// requireBits fails unless got and want are bit-identical.
func requireBits(t *testing.T, what string, i, j int, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s (%d,%d) = %v, per-entry Sample loop %v", what, i, j, got, want)
	}
}

// TestSurveysMatchSampleLoops checks every survey path against a
// per-entry loop over rf.Channel.Sample on a separate channel, bit for
// bit: the column sampler the surveys use must not move a single
// fingerprint. Each preset also runs unquantized, where a rounding
// difference inside a reading cannot hide under the 0.5 dB quantizer.
func TestSurveysMatchSampleLoops(t *testing.T) {
	var envs []Environment
	for _, env := range Environments() {
		raw := env
		raw.Name += "-unquantized"
		raw.Radio.QuantStepDB = 0
		envs = append(envs, env, raw)
	}
	for _, env := range envs {
		t.Run(env.Name, func(t *testing.T) {
			s := NewSurveyor(env, 3)
			ref := NewSurveyor(env, 3).Channel
			m, n := env.NumLinks(), env.NumCells()
			for _, at := range []float64{0, 45 * Day} {
				for _, samples := range []int{IUpdaterSamples, TraditionalSamples} {
					dwell := float64(samples) * SampleInterval
					fp, _ := s.FullSurvey(at, samples)
					for j := 0; j < n; j++ {
						tj := at + float64(j)*(MoveSeconds+dwell)
						for i := 0; i < m; i++ {
							requireBits(t, "FullSurvey", i, j, fp.X.At(i, j), sampleMean(ref, i, j, tj, samples))
						}
					}
					refs := []int{0, n / 3, n/2 + 1, n - 1}
					xr, _ := s.ReferenceSurvey(at, refs, samples)
					for k, j := range refs {
						tk := at + float64(k)*(MoveSeconds+dwell)
						for i := 0; i < m; i++ {
							requireBits(t, "ReferenceSurvey", i, k, xr.At(i, k), sampleMean(ref, i, j, tk, samples))
						}
					}
					mask := s.Mask()
					xb := s.NoDecreaseScan(at, samples)
					for i := 0; i < m; i++ {
						base := sampleMean(ref, i, rf.NoTarget, at, samples)
						for j := 0; j < n; j++ {
							want := 0.0
							if mask.Known(i, j) {
								want = base
							}
							requireBits(t, "NoDecreaseScan", i, j, xb.At(i, j), want)
						}
					}
				}
			}
		})
	}
}

func TestSurveyDeterminism(t *testing.T) {
	a, _ := NewSurveyor(Office(), 11).FullSurvey(0, 5)
	b, _ := NewSurveyor(Office(), 11).FullSurvey(0, 5)
	if !a.X.Equal(b.X) {
		t.Error("identical seeds produced different surveys")
	}
}

func TestTrueFingerprintDriftConsistency(t *testing.T) {
	s := NewSurveyor(Office(), 12)
	f0 := s.TrueFingerprint(0)
	f45 := s.TrueFingerprint(45 * Day)
	mask := s.Mask()
	for i := 0; i < 8; i++ {
		linkShift := s.Channel.Drift(i, 45*Day) - s.Channel.Drift(i, 0)
		for j := 0; j < 96; j++ {
			d := f45.X.At(i, j) - f0.X.At(i, j)
			if mask.Known(i, j) {
				// Unaffected entries drift exactly with the link gain, so
				// the no-decrease scan stays a valid measurement of them.
				if math.Abs(d-linkShift) > 1e-9 {
					t.Fatalf("known entry (%d,%d) drift %v != link drift %v", i, j, d, linkShift)
				}
			} else if math.Abs(d-linkShift) > 5 {
				// Affected entries additionally carry the bounded spatial
				// target-effect drift.
				t.Fatalf("affected entry (%d,%d) drift deviation %v too large", i, j, d-linkShift)
			}
		}
	}
}

func TestTrueFingerprintSpatialDriftSmooth(t *testing.T) {
	// The target-effect drift must vary smoothly along a strip: the
	// neighbor-difference of the drift deviation stays well below the
	// deviation itself (Observation 2's physical basis).
	s := NewSurveyor(Office(), 13)
	f0 := s.TrueFingerprint(0)
	f45 := s.TrueFingerprint(45 * Day)
	g := s.Channel.Grid()
	var devSum, diffSum float64
	var devN, diffN int
	for i := 0; i < g.Links; i++ {
		linkShift := s.Channel.Drift(i, 45*Day) - s.Channel.Drift(i, 0)
		var prev float64
		for u := 0; u < g.PerStrip; u++ {
			j := g.CellIndex(i, u)
			dev := f45.X.At(i, j) - f0.X.At(i, j) - linkShift
			devSum += math.Abs(dev)
			devN++
			if u > 0 {
				diffSum += math.Abs(dev - prev)
				diffN++
			}
			prev = dev
		}
	}
	meanDev := devSum / float64(devN)
	meanDiff := diffSum / float64(diffN)
	if meanDev == 0 {
		t.Fatal("no spatial drift present")
	}
	if meanDiff > 0.6*meanDev {
		t.Errorf("spatial drift not smooth: mean neighbor diff %.3f vs mean deviation %.3f", meanDiff, meanDev)
	}
}
