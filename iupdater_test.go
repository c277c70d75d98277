package iupdater

import (
	"math"
	"testing"
	"time"
)

const day = 24 * time.Hour

func TestPublicAPIEndToEnd(t *testing.T) {
	tb := NewTestbed(Office(), 1)
	original, labor := tb.SurveyMatrix(0, 50)
	if r, c := original.Dims(); r != 8 || c != 96 {
		t.Fatalf("survey shape %dx%d", r, c)
	}
	if labor.Locations != 96 || labor.Duration <= 0 {
		t.Errorf("labor = %+v", labor)
	}

	d, err := NewDeployment(original, tb.Geometry())
	if err != nil {
		t.Fatal(err)
	}
	refs, err := d.ReferenceLocations()
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 8 {
		t.Fatalf("reference count = %d", len(refs))
	}

	at := 45 * day
	cols, _ := tb.ReferenceMatrix(at, refs)
	snap, err := d.Update(tb.NoDecreaseMatrix(at), tb.Mask(), cols)
	if err != nil {
		t.Fatal(err)
	}

	// The refreshed database must be much closer to the current truth
	// than the stale original on the labor-cost entries.
	fresh, truth, known := snap.Fingerprints(), tb.TrueMatrix(at), tb.Mask()
	var errFresh, errStale float64
	var cnt int
	for i := 0; i < truth.Rows(); i++ {
		for j := 0; j < truth.Cols(); j++ {
			if known.Known(i, j) {
				continue
			}
			errFresh += math.Abs(fresh.At(i, j) - truth.At(i, j))
			errStale += math.Abs(original.At(i, j) - truth.At(i, j))
			cnt++
		}
	}
	errFresh /= float64(cnt)
	errStale /= float64(cnt)
	if errFresh >= errStale {
		t.Errorf("update did not help: fresh %.2f dB vs stale %.2f dB", errFresh, errStale)
	}
	if errFresh > 3 {
		t.Errorf("fresh error %.2f dB too large", errFresh)
	}

	// Localize a target with the refreshed database.
	cx, cy := tb.CellCenter(42)
	var sum float64
	const trials = 10
	for k := 0; k < trials; k++ {
		p, err := d.Locate(tb.MeasureOnline(cx, cy, at+time.Duration(k)*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		sum += math.Hypot(p.X-cx, p.Y-cy)
	}
	if mean := sum / trials; mean > 2.5 {
		t.Errorf("mean localization error %.2f m at a known cell", mean)
	}
}

// TestPipelineValidation: row-slice input reaches the update pipeline
// through MatrixFromRows, which rejects nil and ragged rows; well-formed
// rows of the wrong shape for the geometry are rejected by
// NewDeployment.
func TestPipelineValidation(t *testing.T) {
	if _, err := MatrixFromRows(nil); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := MatrixFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	m, err := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDeployment(m, Geometry{WidthM: 3, HeightM: 2, Links: 2, PerStrip: 3}); err == nil {
		t.Error("shape mismatch accepted")
	}
}

// TestPipelineOptions: the reference-count and solver-ablation options
// all produce deployments whose update pipeline runs.
func TestPipelineOptions(t *testing.T) {
	tb := NewTestbed(Office(), 2)
	original, _ := tb.SurveyMatrix(0, 50)
	d, err := NewDeployment(original, tb.Geometry(), WithReferenceCount(5))
	if err != nil {
		t.Fatal(err)
	}
	if refs, err := d.ReferenceLocations(); err != nil || len(refs) != 5 {
		t.Errorf("reference count = %d (err %v), want 5", len(refs), err)
	}
	for _, opts := range [][]Option{
		{WithPaperInitialization()},
		{WithoutReferenceConstraint()},
		{WithoutStabilityConstraint()},
	} {
		d, err := NewDeployment(original, tb.Geometry(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		refs, err := d.ReferenceLocations()
		if err != nil {
			t.Fatal(err)
		}
		at := 5 * day
		cols, _ := tb.ReferenceMatrix(at, refs)
		if _, err := d.Update(tb.NoDecreaseMatrix(at), tb.Mask(), cols); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipelineRefresh: an updated database round-trips through row
// slices and installs as the new baseline; a wrong-shape one is refused.
func TestPipelineRefresh(t *testing.T) {
	tb := NewTestbed(Office(), 3)
	d, _, err := tb.Deploy(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := d.ReferenceLocations()
	if err != nil {
		t.Fatal(err)
	}
	at := 15 * day
	cols, _ := tb.ReferenceMatrix(at, refs)
	snap, err := d.Update(tb.NoDecreaseMatrix(at), tb.Mask(), cols)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := MatrixFromRows(snap.Fingerprints().ToRows())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Install(fresh); err != nil {
		t.Fatal(err)
	}
	bad, err := MatrixFromRows([][]float64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Install(bad); err == nil {
		t.Error("bad refresh shape accepted")
	}
}

// TestLocalizerValidation: a localizer cannot be built over a missing
// or wrong-shape fingerprint database.
func TestLocalizerValidation(t *testing.T) {
	g := Geometry{WidthM: 12, HeightM: 9, Links: 8, PerStrip: 12}
	if _, err := NewDeployment(Matrix{}, g); err == nil {
		t.Error("nil fingerprints accepted")
	}
	short := make([][]float64, 8)
	for i := range short {
		short[i] = make([]float64, 10)
	}
	m, err := MatrixFromRows(short)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDeployment(m, g); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestLocalizerCellHelpers(t *testing.T) {
	tb := NewTestbed(Hall(), 4)
	d, _, err := tb.Deploy(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	c := d.CellCenter(0)
	if c.X <= 0 || c.Y <= 0 {
		t.Errorf("CellCenter(0) = %+v", c)
	}
	cell, err := d.LocateCell(tb.MeasureOnline(c.X, c.Y, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if cell < 0 || cell >= tb.NumCells() {
		t.Errorf("cell %d out of range", cell)
	}
}

func TestEnvironmentPresets(t *testing.T) {
	tests := []struct {
		env   Environment
		links int
		cells int
	}{
		{Office(), 8, 96},
		{Library(), 6, 72},
		{Hall(), 8, 120},
	}
	for _, tt := range tests {
		g := tt.env.Geometry()
		if g.Links != tt.links || g.Links*g.PerStrip != tt.cells {
			t.Errorf("%s: %d links, %d cells", tt.env.Name(), g.Links, g.Links*g.PerStrip)
		}
	}
}

func TestTestbedDeterminism(t *testing.T) {
	a, _ := NewTestbed(Office(), 9).SurveyMatrix(0, 5)
	b, _ := NewTestbed(Office(), 9).SurveyMatrix(0, 5)
	if !matricesEqual(a, b) {
		t.Fatal("same seed, different surveys")
	}
}

func TestLocateMultiplePublicAPI(t *testing.T) {
	tb := NewTestbed(Office(), 5)
	d, _, err := tb.Deploy(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	ax, ay := tb.CellCenter(33) // strip 2
	bx, by := tb.CellCenter(69) // strip 5
	rss := tb.MeasureOnlineMulti([][2]float64{{ax, ay}, {bx, by}}, time.Hour)
	est, err := d.LocateMultiple(rss, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(est) == 0 || len(est) > 2 {
		t.Fatalf("%d estimates", len(est))
	}
	// At least one estimate lands near one of the true targets.
	near := func(p Position, x, y float64) bool {
		return math.Hypot(p.X-x, p.Y-y) < 2.5
	}
	found := false
	for _, p := range est {
		if near(p, ax, ay) || near(p, bx, by) {
			found = true
		}
	}
	if !found {
		t.Errorf("no estimate near either target: %v", est)
	}
}
