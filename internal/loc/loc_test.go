package loc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"iupdater/internal/geom"
	"iupdater/internal/mat"
	"iupdater/internal/testbed"
)

// officeScenario builds a fresh office fingerprint database and its
// surveyor.
func officeScenario(seed uint64) (*testbed.Surveyor, *mat.Dense) {
	s := testbed.NewSurveyor(testbed.Office(), seed)
	fp, _ := s.FullSurvey(0, testbed.TraditionalSamples)
	return s, fp.X
}

// newOMP builds an OMP matcher over x with default (pruned) search.
func newOMP(x *mat.Dense, cfg OMPConfig) *OMP {
	return NewOMPIndex(NewIndex(x, 0, IndexConfig{}), cfg)
}

func TestOMPLocatesCellCenterTargets(t *testing.T) {
	s, x := officeScenario(21)
	omp := newOMP(x, OMPConfig{})
	g := s.Channel.Grid()
	correct, total := 0, 0
	for _, j := range []int{0, 7, 20, 41, 50, 66, 77, 95} {
		y := s.MeasureOnline(g.Center(j), 600, testbed.IUpdaterSamples)
		got, err := omp.Locate(y)
		if err != nil {
			t.Fatalf("cell %d: %v", j, err)
		}
		total++
		if got == j {
			correct++
			continue
		}
		// Allow near-misses only within 1.5 m.
		if g.Center(got).Distance(g.Center(j)) < 1.5 {
			correct++
		}
	}
	// The online path includes ambient-crowd disturbance, which can
	// defeat one or two matches even against a fresh database.
	if correct < total-2 {
		t.Errorf("OMP located %d/%d targets within 1.5 m", correct, total)
	}
}

func TestOMPRejectsBadDimensions(t *testing.T) {
	_, x := officeScenario(22)
	omp := newOMP(x, OMPConfig{})
	if _, err := omp.Locate(make([]float64, 5)); err == nil {
		t.Error("wrong measurement length accepted")
	}
}

func TestOMPPursueSelectsDominantFirst(t *testing.T) {
	s, x := officeScenario(23)
	g := s.Channel.Grid()
	omp := newOMP(x, OMPConfig{MaxSparsity: 3})
	j := g.CellIndex(4, 6)
	y := s.MeasureOnline(g.Center(j), 900, testbed.IUpdaterSamples)
	sel, err := omp.Pursue(y)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) == 0 || len(sel) > 3 {
		t.Fatalf("selected %d columns", len(sel))
	}
	if d := g.Center(sel[0]).Distance(g.Center(j)); d > 1.5 {
		t.Errorf("first selected column %d is %.2f m from the target", sel[0], d)
	}
}

func TestNearestColumnExactOnCleanColumns(t *testing.T) {
	_, x := officeScenario(25)
	nc := NewNearestColumn(x)
	for _, j := range []int{0, 13, 47, 95} {
		got, err := nc.Locate(x.Col(j))
		if err != nil {
			t.Fatal(err)
		}
		if got != j {
			t.Errorf("Locate(column %d) = %d", j, got)
		}
	}
}

func TestSVRFitsSmoothFunction(t *testing.T) {
	// y = sin(x0) + 0.5*x1 on [0,3]²; SVR should fit well within epsilon.
	rng := rand.New(rand.NewSource(27))
	const n = 80
	x := mat.New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*3, rng.Float64()*3
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y[i] = math.Sin(a) + 0.5*b
	}
	svr := NewSVR(DefaultSVRConfig())
	if err := svr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var rmse float64
	for trial := 0; trial < 50; trial++ {
		a, b := rng.Float64()*3, rng.Float64()*3
		pred, err := svr.Predict([]float64{a, b})
		if err != nil {
			t.Fatal(err)
		}
		d := pred - (math.Sin(a) + 0.5*b)
		rmse += d * d
	}
	rmse = math.Sqrt(rmse / 50)
	if rmse > 0.25 {
		t.Errorf("SVR RMSE = %.3f, want < 0.25", rmse)
	}
	if supportVectors(svr) == 0 {
		t.Error("no support vectors")
	}
}

// supportVectors counts the non-zero dual coefficients.
func supportVectors(s *SVR) int {
	var c int
	for _, b := range s.beta {
		if b != 0 {
			c++
		}
	}
	return c
}

func TestSVRValidation(t *testing.T) {
	svr := NewSVR(DefaultSVRConfig())
	if err := svr.Fit(mat.New(3, 2), []float64{1, 2}); err == nil {
		t.Error("target length mismatch accepted")
	}
	if _, err := svr.Predict([]float64{1, 2}); err == nil {
		t.Error("prediction before training accepted")
	}
	if err := svr.Fit(mat.NewFromRows([][]float64{{1, 2}}), []float64{1}); err == nil {
		t.Error("single-sample training accepted")
	}
}

func TestSVREpsilonInsensitiveSparsity(t *testing.T) {
	// With a huge epsilon tube every residual fits inside it and all dual
	// coefficients stay zero.
	rng := rand.New(rand.NewSource(28))
	x := mat.RandomNormal(20, 2, rng)
	y := make([]float64, 20)
	for i := range y {
		y[i] = 0.01 * rng.NormFloat64()
	}
	cfg := DefaultSVRConfig()
	cfg.Epsilon = 10
	svr := NewSVR(cfg)
	if err := svr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := supportVectors(svr); got != 0 {
		t.Errorf("support vectors = %d, want 0 for huge epsilon", got)
	}
}

func TestRASSLocalizesFreshDatabase(t *testing.T) {
	s, x := officeScenario(29)
	g := s.Channel.Grid()
	rass, err := NewRASS(x, g, DefaultSVRConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sumErr float64
	const trials = 20
	rng := rand.New(rand.NewSource(30))
	for k := 0; k < trials; k++ {
		p := geom.Point{X: rng.Float64() * g.Width, Y: rng.Float64() * g.Height}
		y := s.MeasureOnline(p, 400+float64(k)*30, testbed.IUpdaterSamples)
		pred, err := rass.Predict(y)
		if err != nil {
			t.Fatal(err)
		}
		sumErr += pred.Distance(p)
	}
	mean := sumErr / trials
	// RASS on a fresh database achieves meter-level accuracy (its paper
	// reports ~1 m-class errors on similar testbeds).
	if mean > 2.5 {
		t.Errorf("RASS mean error %.2f m on fresh database, want < 2.5", mean)
	}
}

func TestRASSValidation(t *testing.T) {
	g := geom.NewGrid(12, 9, 8, 12)
	if _, err := NewRASS(mat.New(8, 50), g, DefaultSVRConfig()); err == nil {
		t.Error("mismatched grid accepted")
	}
}

func TestQuickNearestColumnSelfConsistency(t *testing.T) {
	// Any column fed back verbatim must locate to itself (clean argmin).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 3 + rng.Intn(6)
		n := 4 + rng.Intn(20)
		x := mat.RandomNormal(m, n, rng)
		nc := NewNearestColumn(x)
		j := rng.Intn(n)
		got, err := nc.Locate(x.Col(j))
		return err == nil && got == j
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickOMPAlwaysReturnsValidCell(t *testing.T) {
	s, x := officeScenario(31)
	g := s.Channel.Grid()
	omp := newOMP(x, OMPConfig{})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := geom.Point{X: rng.Float64() * g.Width, Y: rng.Float64() * g.Height}
		y := s.MeasureOnline(p, rng.Float64()*1e6, 1)
		cell, err := omp.Locate(y)
		return err == nil && cell >= 0 && cell < g.NumCells()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
