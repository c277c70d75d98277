package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a
// numerically singular matrix.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	lu    *Dense // packed L (unit lower) and U
	pivot []int  // row permutation
}

// FactorLU computes the LU factorization of the square matrix a with
// partial pivoting.
func FactorLU(a *Dense) (*LU, error) {
	f := new(LU)
	if err := f.Factor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Factor computes the factorization of a in place, reusing the
// receiver's storage when the dimensions match (the factor-into-
// workspace form: no allocation after the first call at a given size).
// On ErrSingular the previous factorization is destroyed.
func (f *LU) Factor(a *Dense) error {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: LU Factor requires a square matrix, got %dx%d", a.rows, a.cols))
	}
	n := a.rows
	lu := f.lu
	if lu == nil || lu.rows != n {
		lu = New(n, n)
	}
	lu.CopyFrom(a)
	pivot := f.pivot
	if len(pivot) != n {
		pivot = make([]int, n)
	}
	for k := 0; k < n; k++ {
		// Find pivot row.
		p := k
		max := math.Abs(lu.data[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.data[i*n+k]); v > max {
				max, p = v, i
			}
		}
		pivot[k] = p
		if max == 0 {
			f.lu, f.pivot = lu, pivot // keep the storage for reuse
			return ErrSingular
		}
		if p != k {
			rk := lu.data[k*n : (k+1)*n]
			rp := lu.data[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		pivKK := lu.data[k*n+k]
		for i := k + 1; i < n; i++ {
			lu.data[i*n+k] /= pivKK
			lik := lu.data[i*n+k]
			if lik == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.data[i*n+j] -= lik * lu.data[k*n+j]
			}
		}
	}
	f.lu, f.pivot = lu, pivot
	return nil
}

// SolveVec solves A*x = b for x.
func (f *LU) SolveVec(b []float64) ([]float64, error) {
	x := make([]float64, f.lu.rows)
	if err := f.SolveVecInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveVecInto solves A*x = b, writing the solution into x. x may alias
// b.
func (f *LU) SolveVecInto(x, b []float64) error {
	n := f.lu.rows
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("mat: LU SolveVecInto lengths %d/%d, want %d", len(x), len(b), n))
	}
	copy(x, b)
	// Apply permutation.
	for k := 0; k < n; k++ {
		if p := f.pivot[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += f.lu.data[i*n+j] * x[j]
		}
		x[i] -= s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += f.lu.data[i*n+j] * x[j]
		}
		d := f.lu.data[i*n+i]
		if d == 0 {
			return ErrSingular
		}
		x[i] = (x[i] - s) / d
	}
	return nil
}

// Solve solves the square linear system a*x = b.
func Solve(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b)
}
