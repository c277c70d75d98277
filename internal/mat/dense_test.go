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

func TestDiagonal(t *testing.T) {
	m := Diagonal([]float64{2, 5, -1})
	if m.At(0, 0) != 2 || m.At(1, 1) != 5 || m.At(2, 2) != -1 {
		t.Error("Diagonal did not place values on the diagonal")
	}
	if m.At(0, 1) != 0 || m.At(2, 0) != 0 {
		t.Error("Diagonal off-diagonal entries are not zero")
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

func TestSetRowSetCol(t *testing.T) {
	m := New(2, 3)
	m.SetCol(1, []float64{9, 8})
	if m.At(0, 0) != 0 || m.At(0, 1) != 9 || m.At(1, 1) != 8 {
		t.Errorf("unexpected contents:\n%v", m)
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

func TestSubmatrix(t *testing.T) {
	m := NewFromRows([][]float64{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
		{9, 10, 11, 12},
	})
	s := m.Submatrix(1, 3, 1, 3)
	want := NewFromRows([][]float64{{6, 7}, {10, 11}})
	if !s.Equal(want) {
		t.Errorf("Submatrix =\n%vwant\n%v", s, want)
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
	a := Random(3, 3, rand.New(rand.NewSource(7)))
	b := Random(3, 3, rand.New(rand.NewSource(7)))
	if !a.Equal(b) {
		t.Error("Random with identical seeds differs")
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if v := a.At(i, j); v < -1 || v >= 1 {
				t.Errorf("Random value %v out of [-1,1)", v)
			}
		}
	}
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
