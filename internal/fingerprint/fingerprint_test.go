package fingerprint

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"iupdater/internal/mat"
)

func TestNewValidatesDivisibility(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with N not divisible by M did not panic")
		}
	}()
	New(mat.New(3, 10), 0)
}

func TestLargeDecreaseExtraction(t *testing.T) {
	// 4 links x 12 cells, as in the paper's Fig 7 example.
	x := mat.New(4, 12)
	for i := 0; i < 4; i++ {
		for j := 0; j < 12; j++ {
			x.Set(i, j, float64(100*i+j))
		}
	}
	f := New(x, 0)
	xd := f.LargeDecrease()
	if r, c := xd.Dims(); r != 4 || c != 3 {
		t.Fatalf("XD dims = %dx%d, want 4x3", r, c)
	}
	// XD(i, u) = X(i, i*K + u) with K = 3.
	for i := 0; i < 4; i++ {
		for u := 0; u < 3; u++ {
			want := float64(100*i + 3*i + u)
			if got := xd.At(i, u); got != want {
				t.Errorf("XD(%d,%d) = %v, want %v", i, u, got, want)
			}
		}
	}
}

func TestRelationshipMatchesPaperExample(t *testing.T) {
	// Eqn 14's example for N/M = 3.
	want := mat.NewFromRows([][]float64{
		{0, 1, 0},
		{1, 0, 1},
		{0, 1, 0},
	})
	if got := Relationship(3); !got.Equal(want) {
		t.Errorf("T =\n%vwant\n%v", got, want)
	}
}

func TestRelationshipSymmetric(t *testing.T) {
	for _, k := range []int{2, 3, 7, 12, 15} {
		tm := Relationship(k)
		if !tm.Equal(tm.T()) {
			t.Errorf("T(%d) not symmetric", k)
		}
	}
}

func TestContinuityMatchesPaperExampleStructure(t *testing.T) {
	// For K=3 before midpoint redefinition the paper's G is
	// [1 -0.5 0; -1 1 -1; 0 -0.5 1]; the midpoint column (p=2, 1-based)
	// is then redefined by Eqn 15 to (-1, 0, 1)ᵀ.
	g := Continuity(3)
	want := mat.NewFromRows([][]float64{
		{1, -1, 0},
		{-1, 0, -1},
		{0, 1, 1},
	})
	if !g.EqualApprox(want, 1e-12) {
		t.Errorf("G =\n%vwant\n%v", g, want)
	}
}

func TestContinuityNonMidColumnsAverageNeighbors(t *testing.T) {
	// For a column p far from the midpoint: diagonal 1, neighbors -1/deg.
	g := Continuity(12)
	// Column 0: diag 1, entry (1,0) = -1 (single neighbor).
	if g.At(0, 0) != 1 || g.At(1, 0) != -1 {
		t.Errorf("column 0 = %v,%v", g.At(0, 0), g.At(1, 0))
	}
	// Column 2 (interior, away from mid 5.5): diag 1, neighbors -0.5.
	if g.At(2, 2) != 1 || g.At(1, 2) != -0.5 || g.At(3, 2) != -0.5 {
		t.Errorf("column 2 = %v,%v,%v", g.At(1, 2), g.At(2, 2), g.At(3, 2))
	}
}

func TestContinuityMidpointRedefinitionEven(t *testing.T) {
	// K=12: paper p = (12-1)/2 + 1 = 6.5 (1-based), so 0-based columns 5
	// and 6 are redefined: zero diagonal, +1 below, -1 above.
	g := Continuity(12)
	for _, p := range []int{5, 6} {
		if g.At(p, p) != 0 {
			t.Errorf("G(%d,%d) = %v, want 0", p, p, g.At(p, p))
		}
		if g.At(p+1, p) != 1 {
			t.Errorf("G(%d,%d) = %v, want 1", p+1, p, g.At(p+1, p))
		}
		if g.At(p-1, p) != -1 {
			t.Errorf("G(%d,%d) = %v, want -1", p-1, p, g.At(p-1, p))
		}
	}
}

func TestContinuityMidpointRedefinitionOdd(t *testing.T) {
	// K=15: p = 8 (1-based) is an integer, so only 0-based column 7.
	g := Continuity(15)
	p := 7
	if g.At(p, p) != 0 || g.At(p+1, p) != 1 || g.At(p-1, p) != -1 {
		t.Errorf("mid column = %v,%v,%v", g.At(p-1, p), g.At(p, p), g.At(p+1, p))
	}
	// Its neighbors are regular columns.
	if g.At(5, 5) != 1 {
		t.Errorf("G(5,5) = %v, want 1", g.At(5, 5))
	}
}

func TestContinuityAnnihilatesSmoothVShape(t *testing.T) {
	// A symmetric V-shaped row (linear down then up) should produce a
	// near-zero penalty: linear segments have zero second difference and
	// the redefined midpoint column only checks V symmetry.
	k := 11
	g := Continuity(k)
	row := make([]float64, k)
	for u := 0; u < k; u++ {
		row[u] = math.Abs(float64(u) - 5) // V with bottom at u=5
	}
	xd := mat.NewFromData(1, k, row)
	pen := mat.Mul(xd, g)
	// All interior entries except columns adjacent to the kink are 0.
	for u := 0; u < k; u++ {
		v := math.Abs(pen.At(0, u))
		if u == 0 || u == k-1 || u == 4 || u == 6 {
			continue // edge columns and kink-adjacent columns may be non-zero
		}
		if v > 1e-12 {
			t.Errorf("V-shape penalty at column %d = %v, want 0", u, v)
		}
	}
	// Crucially the bottom of the V (midpoint) itself is not penalized.
	if v := math.Abs(pen.At(0, 5)); v > 1e-12 {
		t.Errorf("V bottom penalized: %v", v)
	}
}

func TestSimilarityMatchesEqn17(t *testing.T) {
	h := Similarity(4)
	want := mat.NewFromRows([][]float64{
		{1, 0, 0, 0},
		{-1, 1, 0, 0},
		{0, -1, 1, 0},
		{0, 0, -1, 1},
	})
	if !h.Equal(want) {
		t.Errorf("H =\n%vwant\n%v", h, want)
	}
}

func TestSimilarityComputesRowDifferences(t *testing.T) {
	h := Similarity(3)
	xd := mat.NewFromRows([][]float64{
		{1, 2},
		{1.5, 2.5},
		{1.4, 2.7},
	})
	prod := mat.Mul(h, xd)
	// Row 1 = XD row 1 - XD row 0, row 2 = XD row 2 - XD row 1.
	if math.Abs(prod.At(1, 0)-0.5) > 1e-12 || math.Abs(prod.At(2, 1)-0.2) > 1e-12 {
		t.Errorf("H*XD =\n%v", prod)
	}
}

func TestNLCSmallForContinuousRows(t *testing.T) {
	// A smooth row must have tiny NLC; a row with a spike must flag it.
	smooth := mat.NewFromData(1, 8, []float64{-70, -71, -72, -73, -74, -75, -76, -77})
	nlc := NLC(smooth)
	for u := 1; u < 7; u++ {
		if nlc.At(0, u) > 0.05 {
			t.Errorf("smooth NLC(%d) = %v", u, nlc.At(0, u))
		}
	}
	spiky := mat.NewFromData(1, 8, []float64{-70, -71, -60, -73, -74, -75, -76, -77})
	ns := NLC(spiky)
	if ns.At(0, 2) < 0.3 {
		t.Errorf("spike NLC = %v, want large", ns.At(0, 2))
	}
}

func TestALSSmallForSimilarLinks(t *testing.T) {
	similar := mat.NewFromRows([][]float64{
		{-70, -72, -74},
		{-70.5, -72.5, -74.2},
		{-80, -60, -74}, // dissimilar third link
	})
	a := ALS(similar)
	if r, c := a.Dims(); r != 2 || c != 3 {
		t.Fatalf("ALS dims = %dx%d", r, c)
	}
	// Row 0 (links 0-1): all small. Row 1 (links 1-2): contains the max.
	for u := 0; u < 3; u++ {
		if a.At(0, u) > 0.1 {
			t.Errorf("similar links ALS(%d) = %v", u, a.At(0, u))
		}
	}
	if a.Max() != 1 {
		t.Errorf("ALS max = %v, want 1 (normalization)", a.Max())
	}
}

func TestMaskCounts(t *testing.T) {
	m := NewMask(2, 4, func(i, j int) bool { return i == 0 && j < 2 })
	known := 0
	for i := 0; i < 2; i++ {
		for j := 0; j < 4; j++ {
			if m.Known(i, j) {
				known++
			}
			if v := m.B.At(i, j); v != 0 && v != 1 {
				t.Errorf("mask entry (%d,%d) = %v, want 0 or 1", i, j, v)
			}
		}
	}
	if known != 6 {
		t.Errorf("known entries = %d, want 6", known)
	}
	if m.Known(0, 0) || !m.Known(1, 0) {
		t.Error("Known() misclassifies")
	}
}

func TestMaskProjectAndComplement(t *testing.T) {
	m := NewMask(2, 2, func(i, j int) bool { return i == j })
	x := mat.NewFromRows([][]float64{{1, 2}, {3, 4}})
	proj := m.Project(x)
	// Affected (i==j) entries are unknown -> zeroed by projection.
	if proj.At(0, 0) != 0 || proj.At(1, 1) != 0 || proj.At(0, 1) != 2 || proj.At(1, 0) != 3 {
		t.Errorf("Project =\n%v", proj)
	}
}

func TestQuickNLCBounded(t *testing.T) {
	// NLC values are always in [0, 1] by construction.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(6)
		k := 2 + rng.Intn(12)
		xd := mat.RandomNormal(m, k, rng)
		nlc := NLC(xd)
		return nlc.Min() >= 0 && nlc.Max() <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickALSBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(6)
		k := 2 + rng.Intn(12)
		xd := mat.RandomNormal(m, k, rng)
		a := ALS(xd)
		return a.Min() >= 0 && a.Max() <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickContinuityColumnStructure(t *testing.T) {
	// Every non-mid column of G sums to zero (a weighted difference), and
	// redefined mid columns also sum to zero.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 3 + rng.Intn(15)
		g := Continuity(k)
		sums := g.ColSums()
		for _, s := range sums {
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
