package mat

import (
	"math/rand"
	"testing"
)

func TestRREFFullRankIsIdentityBlock(t *testing.T) {
	a := NewFromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
		{7, 8, 10},
	})
	res := RREF(a, 0)
	if len(res.Pivots) != 3 {
		t.Fatalf("pivots = %v, want 3 pivots", res.Pivots)
	}
	if !res.R.EqualApprox(Identity(3), 1e-10) {
		t.Errorf("RREF of full-rank square matrix =\n%v", res.R)
	}
}

func TestRREFPivotsIdentifyIndependentColumns(t *testing.T) {
	// Column 1 = 2*column 0, column 3 = column 0 + column 2.
	a := NewFromRows([][]float64{
		{1, 2, 0, 1},
		{2, 4, 1, 3},
		{3, 6, 0, 3},
	})
	res := RREF(a, 0)
	want := []int{0, 2}
	if len(res.Pivots) != len(want) {
		t.Fatalf("pivots = %v, want %v", res.Pivots, want)
	}
	for i := range want {
		if res.Pivots[i] != want[i] {
			t.Errorf("pivots = %v, want %v", res.Pivots, want)
			break
		}
	}
}

func TestRREFIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := random(4, 7, rng)
	first := RREF(a, 0)
	second := RREF(first.R, 0)
	if !first.R.EqualApprox(second.R, 1e-9) {
		t.Error("RREF(RREF(A)) != RREF(A)")
	}
}

func TestRREFZeroMatrix(t *testing.T) {
	res := RREF(New(3, 4), 0)
	if len(res.Pivots) != 0 {
		t.Errorf("zero matrix pivots = %v, want none", res.Pivots)
	}
}

func TestRREFPivotCountEqualsRank(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 15; trial++ {
		m := 3 + rng.Intn(5)
		n := 3 + rng.Intn(10)
		r := 1 + rng.Intn(minInt(m, n))
		a := Mul(random(m, r, rng), random(r, n, rng))
		res := RREF(a, 1e-8)
		if len(res.Pivots) != r {
			t.Errorf("trial %d: %d pivots for rank-%d %dx%d matrix", trial, len(res.Pivots), r, m, n)
		}
	}
}

func TestRREFSelectedColumnsSpan(t *testing.T) {
	// Columns selected by RREF pivots must reproduce the full matrix via
	// least squares (they span the column space).
	rng := rand.New(rand.NewSource(33))
	base := random(6, 3, rng)
	coef := random(3, 9, rng)
	a := Mul(base, coef)
	res := RREF(a, 1e-8)
	sel := a.SelectCols(res.Pivots)
	// Solve sel * Z = a in the least-squares sense per column.
	var worst float64
	_, n := a.Dims()
	for j := 0; j < n; j++ {
		z, err := leastSquares(sel, a.Col(j))
		if err != nil {
			t.Fatalf("leastSquares: %v", err)
		}
		recon := mulVec(sel, z)
		col := a.Col(j)
		for i := range col {
			if d := col[i] - recon[i]; d > worst || -d > worst {
				if d < 0 {
					d = -d
				}
				worst = d
			}
		}
	}
	if worst > 1e-8 {
		t.Errorf("pivot columns do not span the matrix: residual %v", worst)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
