package core

import (
	"math"
	"math/rand"
	"testing"

	"iupdater/internal/fingerprint"
	"iupdater/internal/mat"
	"iupdater/internal/testbed"
)

func TestMICSelectsIndependentColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	base := mat.RandomNormal(6, 4, rng)
	coef := mat.RandomNormal(4, 20, rng)
	x := mat.Mul(base, coef) // rank 4
	for _, method := range []MICMethod{MICQRCP, MICRREF} {
		idx, err := MIC(x, 4, method)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if len(idx) != 4 {
			t.Fatalf("%v: %d columns", method, len(idx))
		}
		sel := x.SelectCols(idx)
		if got := svdRank(sel, 1e-8); got != 4 {
			t.Errorf("%v: selected columns have rank %d, want 4", method, got)
		}
		// Ascending order.
		for k := 1; k < len(idx); k++ {
			if idx[k] <= idx[k-1] {
				t.Errorf("%v: indices not ascending: %v", method, idx)
			}
		}
	}
}

func TestMICSpansMatrix(t *testing.T) {
	// The selected columns must reproduce the whole matrix by least
	// squares — the defining property of maximum independent columns.
	rng := rand.New(rand.NewSource(52))
	x := mat.Mul(mat.RandomNormal(8, 8, rng), mat.RandomNormal(8, 40, rng))
	idx, err := MIC(x, 8, MICQRCP)
	if err != nil {
		t.Fatal(err)
	}
	sel := x.SelectCols(idx) // square: 8 independent columns of 8 rows
	for j := 0; j < 40; j++ {
		z, err := mat.Solve(sel, x.Col(j))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range x.Col(j) {
			var recon float64
			for k, zk := range z {
				recon += sel.At(i, k) * zk
			}
			if math.Abs(v-recon) > 1e-7 {
				t.Fatalf("column %d not spanned (entry %d off by %v)", j, i, v-recon)
			}
		}
	}
}

func TestMICOnFingerprintPicksSpreadLocations(t *testing.T) {
	// On a simulated fingerprint matrix the 8 reference locations should
	// cover many distinct strips: each link's dip pattern is the
	// independent structure.
	s := testbed.NewSurveyor(testbed.Office(), 3)
	fp, _ := s.FullSurvey(0, testbed.TraditionalSamples)
	idx, err := MIC(fp.X, 8, MICQRCP)
	if err != nil {
		t.Fatal(err)
	}
	strips := make(map[int]bool)
	for _, j := range idx {
		strips[j/fp.PerStrip] = true
	}
	if len(strips) < 5 {
		t.Errorf("reference locations cover only %d strips: %v", len(strips), idx)
	}
}

func TestMICErrors(t *testing.T) {
	x := mat.New(4, 10)
	if _, err := MIC(x, 0, MICQRCP); err == nil {
		t.Error("r=0 accepted")
	}
	if _, err := MIC(x, 5, MICQRCP); err == nil {
		t.Error("r>rows accepted")
	}
	if _, err := MIC(x, 2, MICMethod(99)); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestLRRReconstructsCleanMatrix(t *testing.T) {
	s := testbed.NewSurveyor(testbed.Office(), 5)
	fp, _ := s.FullSurvey(0, testbed.TraditionalSamples)
	refs, err := MIC(fp.X, 8, MICQRCP)
	if err != nil {
		t.Fatal(err)
	}
	xmic := fp.X.SelectCols(refs)
	res, err := LRR(fp.X, xmic, DefaultLRRConfig())
	if err != nil {
		t.Fatal(err)
	}
	recon := mat.AddM(mat.Mul(xmic, res.Z), res.E)
	diff := mat.SubM(fp.X, recon)
	rel := mat.FrobeniusNorm(diff) / mat.FrobeniusNorm(fp.X)
	if rel > 1e-3 {
		t.Errorf("LRR residual %.2e, want < 1e-3", rel)
	}
}

func TestLRRCorrelationTransfersAcrossDrift(t *testing.T) {
	// The key enabler of the whole system: Z learned at t=0 must predict
	// the matrix at t=45 days from fresh reference columns far better
	// than the stale matrix does.
	s := testbed.NewSurveyor(testbed.Office(), 6)
	fp0, _ := s.FullSurvey(0, testbed.TraditionalSamples)
	refs, err := MIC(fp0.X, 8, MICQRCP)
	if err != nil {
		t.Fatal(err)
	}
	xmic := fp0.X.SelectCols(refs)
	lrr, err := LRR(fp0.X, xmic, DefaultLRRConfig())
	if err != nil {
		t.Fatal(err)
	}

	const t45 = 45 * testbed.Day
	truth := s.TrueFingerprint(t45)
	xr, _ := s.ReferenceSurvey(t45, refs, testbed.IUpdaterSamples)
	pred := mat.Mul(xr, lrr.Z)

	errPred := meanAbsDiff(pred, truth.X)
	errStale := meanAbsDiff(fp0.X, truth.X)
	if errPred >= errStale {
		t.Errorf("LRR prediction error %.2f dB not below stale error %.2f dB", errPred, errStale)
	}
	if errPred > 3.5 {
		t.Errorf("LRR prediction error %.2f dB too large", errPred)
	}
}

func TestLRRErrors(t *testing.T) {
	if _, err := LRR(mat.New(4, 10), mat.New(3, 2), DefaultLRRConfig()); err == nil {
		t.Error("row mismatch accepted")
	}
	bad := DefaultLRRConfig()
	bad.Epsilon = 0
	if _, err := LRR(mat.New(4, 10), mat.New(4, 2), bad); err == nil {
		t.Error("zero epsilon accepted")
	}
}

func TestReconstructValidation(t *testing.T) {
	rc := NewReconstructor()
	if _, err := rc.Reconstruct(Input{}); err == nil {
		t.Error("nil XB accepted")
	}
	if _, err := rc.Reconstruct(Input{XB: mat.New(4, 12), B: mat.New(4, 10)}); err == nil {
		t.Error("mismatched B accepted")
	}
	if _, err := rc.Reconstruct(Input{XB: mat.New(4, 12), B: mat.New(4, 12), Links: 3, PerStrip: 3}); err == nil {
		t.Error("bad strip structure accepted")
	}
	if _, err := rc.Reconstruct(Input{XB: mat.New(4, 12), B: mat.New(4, 12), Links: 4, PerStrip: 3,
		XR: mat.New(4, 2), Z: mat.New(3, 12)}); err == nil {
		t.Error("inconsistent XR/Z accepted")
	}
}

// reconstructionScenario builds the standard update scenario: original
// survey at t=0, update at tUpdate with the given options; returns the
// reconstruction and the measured ground truth at tUpdate.
func reconstructionScenario(t *testing.T, seed uint64, tUpdate float64, opts ...Option) (*Result, fingerprint.Matrix, fingerprint.Mask) {
	t.Helper()
	s := testbed.NewSurveyor(testbed.Office(), seed)
	fp0, _ := s.FullSurvey(0, testbed.TraditionalSamples)
	cfg := DefaultUpdaterConfig()
	cfg.Reconstruction = append(cfg.Reconstruction, opts...)
	up, err := NewUpdater(fp0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mask := s.Mask()
	xb := s.NoDecreaseScan(tUpdate, testbed.IUpdaterSamples)
	xr, _ := s.ReferenceSurvey(tUpdate, up.ReferenceLocations(), testbed.IUpdaterSamples)
	_, res, err := up.Update(xb, mask, xr, tUpdate)
	if err != nil {
		t.Fatal(err)
	}
	truth := s.TrueFingerprint(tUpdate)
	return res, truth, mask
}

func TestSelfAugmentedReconstructionAccuracy(t *testing.T) {
	// The headline behavior (Fig 18): after 45 days of drift the
	// reconstructed matrix is close to the current truth on the affected
	// (labor-cost) entries, which a stale database misses by ~6 dB.
	res, truth, mask := reconstructionScenario(t, 7, 45*testbed.Day)
	errAffected := maskedMeanAbs(res.X, truth.X, mask, false)
	if errAffected > 4.0 {
		t.Errorf("affected-entry reconstruction error %.2f dB, want < 4", errAffected)
	}
	errKnown := maskedMeanAbs(res.X, truth.X, mask, true)
	if errKnown > 1.5 {
		t.Errorf("known-entry reconstruction error %.2f dB, want < 1.5", errKnown)
	}
}

func TestReconstructionBeatsStaleDatabase(t *testing.T) {
	s := testbed.NewSurveyor(testbed.Office(), 8)
	fp0, _ := s.FullSurvey(0, testbed.TraditionalSamples)
	res, truth, mask := reconstructionScenario(t, 8, 45*testbed.Day)
	errRecon := maskedMeanAbs(res.X, truth.X, mask, false)
	errStale := maskedMeanAbs(fp0.X, truth.X, mask, false)
	if errRecon >= errStale {
		t.Errorf("reconstruction %.2f dB not better than stale %.2f dB", errRecon, errStale)
	}
}

func TestConstraintAblationOrdering(t *testing.T) {
	// Fig 16: error(RSVD) > error(RSVD+C1) > error(RSVD+C1+C2). The
	// ablation evaluates Algorithm 1 as printed, i.e. from the random
	// initialization it prescribes (with the SVD warm start of the
	// production pipeline, Constraint 1 alone already reaches the noise
	// floor and C2's contribution vanishes — see the init ablation
	// benchmark).
	const tU = 45 * testbed.Day
	cold := WithWarmStart(false)
	basic, truth, mask := reconstructionScenario(t, 9, tU,
		cold, WithConstraint1(false), WithConstraint2(false))
	c1, _, _ := reconstructionScenario(t, 9, tU,
		cold, WithConstraint1(true), WithConstraint2(false))
	c12, _, _ := reconstructionScenario(t, 9, tU,
		cold, WithConstraint1(true), WithConstraint2(true))

	eBasic := maskedMeanAbs(basic.X, truth.X, mask, false)
	eC1 := maskedMeanAbs(c1.X, truth.X, mask, false)
	eC12 := maskedMeanAbs(c12.X, truth.X, mask, false)
	if !(eBasic > eC1) {
		t.Errorf("C1 did not help: basic %.2f vs +C1 %.2f", eBasic, eC1)
	}
	if !(eC1 > eC12) {
		t.Errorf("C2 did not help under cold start: +C1 %.2f vs +C1+C2 %.2f", eC1, eC12)
	}
}

func TestVariantsBothConverge(t *testing.T) {
	for _, v := range []Variant{VariantGaussSeidel, VariantPaper} {
		res, truth, mask := reconstructionScenario(t, 10, 15*testbed.Day, WithVariant(v))
		e := maskedMeanAbs(res.X, truth.X, mask, false)
		if e > 6 {
			t.Errorf("%v: error %.2f dB, want < 6", v, e)
		}
		if !res.X.IsFinite() {
			t.Errorf("%v: non-finite output", v)
		}
	}
}

func TestReconstructionDeterminism(t *testing.T) {
	a, _, _ := reconstructionScenario(t, 11, 5*testbed.Day)
	b, _, _ := reconstructionScenario(t, 11, 5*testbed.Day)
	if !a.X.Equal(b.X) {
		t.Error("identical scenarios produced different reconstructions")
	}
}

func TestUpdaterReferenceCount(t *testing.T) {
	s := testbed.NewSurveyor(testbed.Office(), 12)
	fp0, _ := s.FullSurvey(0, testbed.TraditionalSamples)
	up, err := NewUpdater(fp0, DefaultUpdaterConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Claim 1: the number of reference locations equals the rank bound M,
	// far below N.
	if got := len(up.ReferenceLocations()); got != 8 {
		t.Errorf("reference count = %d, want 8", got)
	}
	cfg := DefaultUpdaterConfig()
	cfg.NumReferences = 5
	up5, err := NewUpdater(fp0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(up5.ReferenceLocations()); got != 5 {
		t.Errorf("reference count = %d, want 5", got)
	}
}

func TestUpdaterRejectsWrongReferenceMatrix(t *testing.T) {
	s := testbed.NewSurveyor(testbed.Office(), 13)
	fp0, _ := s.FullSurvey(0, testbed.TraditionalSamples)
	up, err := NewUpdater(fp0, DefaultUpdaterConfig())
	if err != nil {
		t.Fatal(err)
	}
	xb := s.NoDecreaseScan(0, 5)
	_, _, err = up.Update(xb, s.Mask(), mat.New(8, 3), 0)
	if err == nil {
		t.Error("wrong reference column count accepted")
	}
}

func TestUpdaterRefresh(t *testing.T) {
	s := testbed.NewSurveyor(testbed.Office(), 14)
	fp0, _ := s.FullSurvey(0, testbed.TraditionalSamples)
	up, err := NewUpdater(fp0, DefaultUpdaterConfig())
	if err != nil {
		t.Fatal(err)
	}
	mask := s.Mask()
	xb := s.NoDecreaseScan(15*testbed.Day, 5)
	xr, _ := s.ReferenceSurvey(15*testbed.Day, up.ReferenceLocations(), 5)
	updated, _, err := up.Update(xb, mask, xr, 15*testbed.Day)
	if err != nil {
		t.Fatal(err)
	}
	// Refreshing is re-running correlation acquisition on the updated
	// matrix, as Fig 10's feedback loop prescribes.
	up, err = NewUpdater(updated, DefaultUpdaterConfig())
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if got := len(up.ReferenceLocations()); got != 8 {
		t.Errorf("reference count after refresh = %d", got)
	}
}

func meanAbsDiff(a, b *mat.Dense) float64 {
	d := mat.SubM(a, b)
	var sum float64
	m, n := d.Dims()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			sum += math.Abs(d.At(i, j))
		}
	}
	return sum / float64(m*n)
}

// maskedMeanAbs returns the mean |a-b| over the known (known=true) or
// affected (known=false) entries.
func maskedMeanAbs(a, b *mat.Dense, mask fingerprint.Mask, known bool) float64 {
	var sum float64
	var cnt int
	m, n := a.Dims()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if mask.Known(i, j) == known {
				sum += math.Abs(a.At(i, j) - b.At(i, j))
				cnt++
			}
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// svdRank counts the singular values of a above tol * s_max: the
// numerical rank.
func svdRank(a *mat.Dense, tol float64) int {
	s := mat.SingularValues(a)
	r := 0
	for _, v := range s {
		if v > tol*s[0] {
			r++
		}
	}
	return r
}
