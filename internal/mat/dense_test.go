package mat

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestNewZeroInitialized(t *testing.T) {
	m := New(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims() = %d,%d, want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	tests := []struct {
		name string
		r, c int
	}{
		{"zero rows", 0, 3},
		{"zero cols", 3, 0},
		{"negative rows", -1, 3},
		{"negative cols", 3, -2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", tt.r, tt.c)
				}
			}()
			New(tt.r, tt.c)
		})
	}
}

func TestNewFromData(t *testing.T) {
	m := NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if got := m.At(1, 2); got != 6 {
		t.Errorf("At(1,2) = %v, want 6", got)
	}
	if got := m.At(0, 1); got != 2 {
		t.Errorf("At(0,1) = %v, want 2", got)
	}
}

func TestNewFromDataCopies(t *testing.T) {
	data := []float64{1, 2, 3, 4}
	m := NewFromData(2, 2, data)
	data[0] = 99
	if m.At(0, 0) != 1 {
		t.Error("NewFromData did not copy its input")
	}
}

func TestNewFromDataPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFromData with wrong length did not panic")
		}
	}()
	NewFromData(2, 2, []float64{1, 2, 3})
}

func TestNewFromRows(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if r, c := m.Dims(); r != 3 || c != 2 {
		t.Fatalf("Dims() = %d,%d, want 3,2", r, c)
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v, want 6", m.At(2, 1))
	}
}

func TestNewFromRowsPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged NewFromRows did not panic")
		}
	}()
	NewFromRows([][]float64{{1, 2}, {3}})
}

func TestIdentity(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Errorf("I(%d,%d) = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(4, 5)
	m.Set(2, 3, 7.5)
	if got := m.At(2, 3); got != 7.5 {
		t.Errorf("At after Set = %v, want 7.5", got)
	}
	m.Add(2, 3, 0.5)
	if got := m.At(2, 3); got != 8 {
		t.Errorf("At after Add = %v, want 8", got)
	}
}

func TestIndexPanics(t *testing.T) {
	m := New(2, 2)
	tests := []struct {
		name string
		f    func()
	}{
		{"At row overflow", func() { m.At(2, 0) }},
		{"At col overflow", func() { m.At(0, 2) }},
		{"At negative", func() { m.At(-1, 0) }},
		{"Set overflow", func() { m.Set(0, 5, 1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tt.f()
		})
	}
}

func TestRowColCopies(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	r := m.Row(1)
	if r[0] != 4 || r[2] != 6 {
		t.Errorf("Row(1) = %v", r)
	}
	r[0] = 99
	if m.At(1, 0) != 4 {
		t.Error("Row did not return a copy")
	}
	c := m.Col(2)
	if c[0] != 3 || c[1] != 6 {
		t.Errorf("Col(2) = %v", c)
	}
	c[0] = 99
	if m.At(0, 2) != 3 {
		t.Error("Col did not return a copy")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}})
	n := m.Clone()
	n.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares backing storage")
	}
}

func TestTranspose(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if r, c := mt.Dims(); r != 3 || c != 2 {
		t.Fatalf("T dims = %d,%d, want 3,2", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Errorf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestSelectCols(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	s := m.SelectCols([]int{2, 0})
	want := NewFromRows([][]float64{{3, 1}, {6, 4}})
	if !s.Equal(want) {
		t.Errorf("SelectCols =\n%vwant\n%v", s, want)
	}
}

func TestEqualApprox(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{1.0001, 2}, {3, 3.9999}})
	if !a.EqualApprox(b, 1e-3) {
		t.Error("EqualApprox(1e-3) = false, want true")
	}
	if a.EqualApprox(b, 1e-6) {
		t.Error("EqualApprox(1e-6) = true, want false")
	}
	c := New(2, 3)
	if a.EqualApprox(c, 1) {
		t.Error("EqualApprox across dimensions should be false")
	}
}

func TestIsFinite(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}})
	if !m.IsFinite() {
		t.Error("finite matrix reported non-finite")
	}
	m.Set(0, 1, math.NaN())
	if m.IsFinite() {
		t.Error("NaN matrix reported finite")
	}
	m.Set(0, 1, math.Inf(1))
	if m.IsFinite() {
		t.Error("Inf matrix reported finite")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := RandomNormal(3, 3, rand.New(rand.NewSource(7)))
	b := RandomNormal(3, 3, rand.New(rand.NewSource(7)))
	if !a.Equal(b) {
		t.Error("RandomNormal with identical seeds differs")
	}
	if c := RandomNormal(3, 3, rand.New(rand.NewSource(8))); a.Equal(c) {
		t.Error("RandomNormal ignores its seed")
	}
}

// random returns an r x c matrix with entries drawn uniformly from
// [-1, 1) using rng.
func random(r, c int, rng *rand.Rand) *Dense {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = 2*rng.Float64() - 1
	}
	return m
}

// diagonal returns a square matrix with d on its main diagonal.
func diagonal(d []float64) *Dense {
	m := New(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// mulVec returns the matrix-vector product a * x.
func mulVec(a *Dense, x []float64) []float64 {
	out := make([]float64, a.rows)
	for i := range out {
		for k, v := range x {
			out[i] += a.At(i, k) * v
		}
	}
	return out
}

// mulVecT returns aᵀ * x.
func mulVecT(a *Dense, x []float64) []float64 {
	return mulVec(a.T(), x)
}

// colNorms returns the Euclidean norm of every column.
func colNorms(m *Dense) []float64 {
	out := make([]float64, m.cols)
	for j := range out {
		out[j] = math.Sqrt(VecNorm2Sq(m.Col(j)))
	}
	return out
}

// reconstruct rebuilds U * diag(S) * Vᵀ from a decomposition.
func reconstruct(d *SVD) *Dense {
	return MulTB(Mul(d.U, diagonal(d.S)), d.V)
}

// leastSquares solves min ||a*x - b||₂ for a of full column rank
// through the normal equations.
func leastSquares(a *Dense, b []float64) ([]float64, error) {
	return Solve(MulTA(a, a), mulVecT(a, b))
}

func TestCopyFrom(t *testing.T) {
	a := New(2, 2)
	b := NewFromRows([][]float64{{1, 2}, {3, 4}})
	a.CopyFrom(b)
	if !a.Equal(b) {
		t.Error("CopyFrom did not copy")
	}
}

func TestStringRenders(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}})
	s := m.String()
	if !strings.Contains(s, "1x2") {
		t.Errorf("String() = %q, missing dimension header", s)
	}
}
