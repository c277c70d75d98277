package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestLUSolveKnownSystem(t *testing.T) {
	a := NewFromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := []float64{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestLUSolveRandomResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(8)
		a := random(n, n, rng)
		// Diagonal dominance guarantees non-singularity.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := mulVec(a, xTrue)
		x, err := Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-9 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Error("Solve on singular matrix returned nil error")
	}
}

func TestInverse(t *testing.T) {
	a := NewFromRows([][]float64{{4, 7}, {2, 6}})
	inv := New(2, 2)
	for j := 0; j < 2; j++ {
		col, err := Solve(a, Identity(2).Col(j))
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		for i, v := range col {
			inv.Set(i, j, v)
		}
	}
	if !Mul(a, inv).EqualApprox(Identity(2), 1e-12) {
		t.Error("A*A⁻¹ != I")
	}
	if !Mul(inv, a).EqualApprox(Identity(2), 1e-12) {
		t.Error("A⁻¹*A != I")
	}
}

// det is the determinant read off FactorLU's factors: the product of
// U's diagonal, negated once per row swap; 0 when a is singular.
func det(a *Dense) float64 {
	f, err := FactorLU(a)
	if err != nil {
		return 0
	}
	n := a.rows
	d := 1.0
	for i := 0; i < n; i++ {
		d *= f.lu.data[i*n+i]
		if f.pivot[i] != i {
			d = -d
		}
	}
	return d
}

func TestDet(t *testing.T) {
	tests := []struct {
		name string
		m    *Dense
		want float64
	}{
		{"identity", Identity(3), 1},
		{"2x2", NewFromRows([][]float64{{1, 2}, {3, 4}}), -2},
		{"singular", NewFromRows([][]float64{{1, 2}, {2, 4}}), 0},
		{"diag", diagonal([]float64{2, 3, 4}), 24},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := det(tt.m); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Det = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(8)
		g := random(n, n, rng)
		// AᵀA + I is symmetric positive definite.
		a := AddM(MulTA(g, g), Identity(n))
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := mulVec(a, xTrue)
		var c Cholesky
		if err := c.Factor(a); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		x := make([]float64, n)
		c.SolveVecInto(x, b)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestCholeskyFactorReconstructs(t *testing.T) {
	a := NewFromRows([][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	})
	var c Cholesky
	if err := c.Factor(a); err != nil {
		t.Fatalf("Factor: %v", err)
	}
	l := c.l
	if !MulTB(l, l).EqualApprox(a, 1e-10) {
		t.Error("L*Lᵀ != A")
	}
	// Known factor for this classic example.
	wantL := NewFromRows([][]float64{{2, 0, 0}, {6, 1, 0}, {-8, 5, 3}})
	if !l.EqualApprox(wantL, 1e-10) {
		t.Errorf("L =\n%vwant\n%v", l, wantL)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	var c Cholesky
	if err := c.Factor(a); err == nil {
		t.Error("Cholesky accepted an indefinite matrix")
	}
}

func TestQRCPRankAndPivots(t *testing.T) {
	// Build a 6x8 matrix of rank 3: only 3 independent columns.
	rng := rand.New(rand.NewSource(16))
	base := random(6, 3, rng)
	coef := random(3, 8, rng)
	a := Mul(base, coef)
	f := FactorQRCP(a)
	cols := f.IndependentCols(3)
	sel := a.SelectCols(cols)
	if got := svdRank(sel, 1e-8); got != 3 {
		t.Errorf("selected columns have rank %d, want 3", got)
	}
}

func TestQRCPPivotsAreDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := random(5, 9, rng)
	f := FactorQRCP(a)
	seen := make(map[int]bool)
	for _, p := range f.Perm {
		if seen[p] {
			t.Fatalf("duplicate pivot column %d", p)
		}
		seen[p] = true
	}
}

func TestSolveSPDFallsBackToLU(t *testing.T) {
	// Symmetric but indefinite: Cholesky fails, LU succeeds.
	a := NewFromRows([][]float64{{1, 2}, {2, 1}})
	b := []float64{3, 3}
	var s SPDSolver
	x := make([]float64, 2)
	if err := s.SolveSymVecInto(x, a, b); err != nil {
		t.Fatalf("SolveSymVecInto: %v", err)
	}
	got := mulVec(a, x)
	for i := range b {
		if math.Abs(got[i]-b[i]) > 1e-10 {
			t.Errorf("residual[%d] = %v", i, got[i]-b[i])
		}
	}
}
