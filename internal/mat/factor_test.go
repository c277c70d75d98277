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
		a := Random(n, n, rng)
		// Diagonal dominance guarantees non-singularity.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := MulVec(a, xTrue)
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
	inv, err := SolveMatrix(a, Identity(2))
	if err != nil {
		t.Fatalf("SolveMatrix: %v", err)
	}
	if !Mul(a, inv).EqualApprox(Identity(2), 1e-12) {
		t.Error("A*A⁻¹ != I")
	}
	if !Mul(inv, a).EqualApprox(Identity(2), 1e-12) {
		t.Error("A⁻¹*A != I")
	}
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
		{"diag", Diagonal([]float64{2, 3, 4}), 24},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Det(tt.m); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Det = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(8)
		g := Random(n, n, rng)
		// AᵀA + I is symmetric positive definite.
		a := AddM(MulTA(g, g), Identity(n))
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := MulVec(a, xTrue)
		c, err := FactorCholesky(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		x := c.SolveVec(b)
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
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatalf("FactorCholesky: %v", err)
	}
	l := c.L()
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
	if _, err := FactorCholesky(a); err == nil {
		t.Error("FactorCholesky accepted an indefinite matrix")
	}
}

func TestQRReconstructionAndOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		m := 3 + rng.Intn(8)
		n := 1 + rng.Intn(m)
		a := Random(m, n, rng)
		f := FactorQR(a)
		q, r := f.Q(), f.R()
		if !Mul(q, r).EqualApprox(a, 1e-10) {
			t.Fatalf("trial %d: QR != A", trial)
		}
		if !MulTA(q, q).EqualApprox(Identity(n), 1e-10) {
			t.Fatalf("trial %d: QᵀQ != I", trial)
		}
		// R upper triangular.
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if math.Abs(r.At(i, j)) > 1e-10 {
					t.Fatalf("trial %d: R(%d,%d) = %v not zero", trial, i, j, r.At(i, j))
				}
			}
		}
	}
}

func TestLeastSquaresRecoversExactSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := Random(10, 4, rng)
	xTrue := []float64{1, -2, 3, 0.5}
	b := MulVec(a, xTrue)
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	for i := range xTrue {
		if math.Abs(x[i]-xTrue[i]) > 1e-9 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The least-squares residual must be orthogonal to the column space.
	rng := rand.New(rand.NewSource(15))
	a := Random(12, 5, rng)
	b := make([]float64, 12)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	res := MulVec(a, x)
	for i := range res {
		res[i] = b[i] - res[i]
	}
	proj := MulVecT(a, res)
	for j := range proj {
		if math.Abs(proj[j]) > 1e-9 {
			t.Errorf("Aᵀr[%d] = %v, want ~0", j, proj[j])
		}
	}
}

func TestQRCPRankAndPivots(t *testing.T) {
	// Build a 6x8 matrix of rank 3: only 3 independent columns.
	rng := rand.New(rand.NewSource(16))
	base := Random(6, 3, rng)
	coef := Random(3, 8, rng)
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
	a := Random(5, 9, rng)
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
	x, err := SolveSPD(a, b)
	if err != nil {
		t.Fatalf("SolveSPD: %v", err)
	}
	got := MulVec(a, x)
	for i := range b {
		if math.Abs(got[i]-b[i]) > 1e-10 {
			t.Errorf("residual[%d] = %v", i, got[i]-b[i])
		}
	}
}
