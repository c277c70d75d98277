package mat

import (
	"fmt"
	"math"
)

// Cholesky holds a lower-triangular Cholesky factor: A = L*Lᵀ. The zero
// value is an empty factorization ready for Factor; refactoring through
// the same value reuses its storage.
type Cholesky struct {
	l       *Dense
	scratch []float64 // column gather buffer for SolveInto
}

// Factor computes the factorization of a in place, reusing the
// receiver's storage when the dimensions match (the factor-into-
// workspace form: no allocation after the first call at a given size).
// On ErrSingular the previous factorization is destroyed.
func (c *Cholesky) Factor(a *Dense) error {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: Cholesky Factor requires a square matrix, got %dx%d", a.rows, a.cols))
	}
	n := a.rows
	if c.l == nil || c.l.rows != n {
		c.l = New(n, n)
	}
	// Only the lower triangle is read back (the upper stays zero from
	// New and is never written), and every lower entry is overwritten,
	// so no clearing is needed on reuse.
	l := c.l
	for j := 0; j < n; j++ {
		ljrow := l.data[j*n : j*n+j]
		var d float64
		for _, v := range ljrow {
			d += v * v
		}
		d = a.data[j*n+j] - d
		if d <= 0 {
			return ErrSingular
		}
		ljj := math.Sqrt(d)
		l.data[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			lirow := l.data[i*n : i*n+j]
			var s float64
			for k, v := range lirow {
				s += v * ljrow[k]
			}
			l.data[i*n+j] = (a.data[i*n+j] - s) / ljj
		}
	}
	return nil
}

// SolveVecInto solves A*x = b, writing the solution into x. x may alias
// b.
func (c *Cholesky) SolveVecInto(x, b []float64) {
	n := c.l.rows
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("mat: Cholesky SolveVecInto lengths %d/%d, want %d", len(x), len(b), n))
	}
	copy(x, b)
	// Forward: L*y = b.
	for i := 0; i < n; i++ {
		lrow := c.l.data[i*n : i*n+i]
		var s float64
		for j, v := range lrow {
			s += v * x[j]
		}
		x[i] = (x[i] - s) / c.l.data[i*n+i]
	}
	// Backward: Lᵀ*x = y.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += c.l.data[j*n+i] * x[j]
		}
		x[i] = (x[i] - s) / c.l.data[i*n+i]
	}
}

// SolveInto solves A*X = B column by column into dst, allocating nothing
// after the first call at a given size. dst may alias b.
func (c *Cholesky) SolveInto(dst, b *Dense) *Dense {
	n := c.l.rows
	if b.rows != n {
		panic(fmt.Sprintf("mat: Cholesky SolveInto dimension mismatch %d vs %d", b.rows, n))
	}
	checkSameDims("SolveInto", dst, b)
	if len(c.scratch) < n {
		c.scratch = make([]float64, n)
	}
	col := c.scratch[:n]
	for j := 0; j < b.cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.data[i*b.cols+j]
		}
		c.SolveVecInto(col, col)
		for i := 0; i < n; i++ {
			dst.data[i*dst.cols+j] = col[i]
		}
	}
	return dst
}

// SPDSolver is a reusable factor-and-solve for symmetric positive-
// definite normal equations: it owns the Cholesky workspace, so repeated
// solves at one size (the per-row/per-column ALS solves) allocate
// nothing. The zero value is ready to use.
type SPDSolver struct {
	chol Cholesky
}

// SolveSymVecInto is SolveVecInto for callers that filled only the
// lower triangle of a (the Cholesky path never reads the upper one).
// The rare non-SPD fallback mirrors the lower triangle up before the LU
// solve.
func (s *SPDSolver) SolveSymVecInto(x []float64, a *Dense, b []float64) error {
	if err := s.chol.Factor(a); err == nil {
		s.chol.SolveVecInto(x, b)
		return nil
	}
	n := a.rows
	for c := 0; c < n; c++ {
		for d := c + 1; d < n; d++ {
			a.data[c*n+d] = a.data[d*n+c]
		}
	}
	y, err := Solve(a, b)
	if err != nil {
		return err
	}
	copy(x, y)
	return nil
}
