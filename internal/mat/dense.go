// Package mat provides the dense linear-algebra substrate used by iUpdater:
// matrix arithmetic, norms, LU/QR/Cholesky factorizations, a one-sided
// Jacobi SVD, reduced row echelon form, and the proximal operators
// (singular-value thresholding, l2,1 shrinkage) needed by the low-rank
// representation solver.
//
// Matrices are small in this domain (at most a few hundred rows or columns:
// the fingerprint matrix is M links x N locations with M <= 8 and
// N <= 120), so the package favors simple, numerically robust algorithms
// over blocked high-performance kernels.
//
// Following the convention of established Go linear-algebra libraries,
// dimension mismatches and out-of-range indices are programmer errors and
// panic; data-dependent failures (singular systems, non-convergence) are
// reported as errors.
package mat

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64
}

// New returns a zero-initialized r x c matrix.
func New(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: non-positive dimensions %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewFromData returns an r x c matrix backed by a copy of data, which must
// hold exactly r*c values in row-major order.
func NewFromData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	m := New(r, c)
	copy(m.data, data)
	return m
}

// NewFromRows returns a matrix whose i-th row is rows[i]. All rows must
// have equal, non-zero length.
func NewFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: NewFromRows requires a non-empty row set")
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d entries, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// RandomNormal returns an r x c matrix with standard normal entries.
func RandomNormal(r, c int, rng *rand.Rand) *Dense {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	m.checkIndex(i, 0)
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	m.checkIndex(0, j)
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// CopyFrom overwrites m with the contents of src, which must have the same
// dimensions.
func (m *Dense) CopyFrom(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("mat: CopyFrom dimension mismatch %dx%d vs %dx%d", m.rows, m.cols, src.rows, src.cols))
	}
	copy(m.data, src.data)
}

// T returns a newly allocated transpose of m.
func (m *Dense) T() *Dense {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// SelectCols returns a copy of the columns of m listed in idx, in order.
func (m *Dense) SelectCols(idx []int) *Dense {
	if len(idx) == 0 {
		panic("mat: SelectCols requires at least one column")
	}
	out := New(m.rows, len(idx))
	for k, j := range idx {
		m.checkIndex(0, j)
		for i := 0; i < m.rows; i++ {
			out.data[i*out.cols+k] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Equal reports whether m and n have identical dimensions and elements.
func (m *Dense) Equal(n *Dense) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i, v := range m.data {
		if v != n.data[i] {
			return false
		}
	}
	return true
}

// EqualApprox reports whether m and n have identical dimensions and all
// elements within tol of each other.
func (m *Dense) EqualApprox(n *Dense, tol float64) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-n.data[i]) > tol {
			return false
		}
	}
	return true
}

// IsFinite reports whether every element is finite (no NaN or Inf).
func (m *Dense) IsFinite() bool {
	for _, v := range m.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// RawData returns the underlying row-major backing slice. Mutating the
// returned slice mutates the matrix; callers that need isolation should
// Clone first.
func (m *Dense) RawData() []float64 { return m.data }

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d\n", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "% .4f", m.data[i*m.cols+j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
