package mat

import "fmt"

// AddM returns a + b.
func AddM(a, b *Dense) *Dense {
	checkSameDims("AddM", a, b)
	return AddInto(New(a.rows, a.cols), a, b)
}

// SubM returns a - b.
func SubM(a, b *Dense) *Dense {
	checkSameDims("SubM", a, b)
	return SubInto(New(a.rows, a.cols), a, b)
}

// Scale returns s * a.
func Scale(s float64, a *Dense) *Dense {
	return ScaleInto(New(a.rows, a.cols), s, a)
}

// Hadamard returns the element-wise product a .* b.
func Hadamard(a, b *Dense) *Dense {
	checkSameDims("Hadamard", a, b)
	return HadamardInto(New(a.rows, a.cols), a, b)
}

// Mul returns the matrix product a * b using the branch-free blocked
// dense kernel. For genuinely sparse operands (0/1 masks, banded
// operators) use MulSparse, which skips zero entries of a.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	return MulInto(New(a.rows, b.cols), a, b)
}

// MulTA returns aᵀ * b without materializing the transpose.
func MulTA(a, b *Dense) *Dense {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: MulTA dimension mismatch %dx%d ᵀ* %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	return MulTAInto(New(a.cols, b.cols), a, b)
}

// MulTB returns a * bᵀ without materializing the transpose.
func MulTB(a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulTB dimension mismatch %dx%d *ᵀ %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	return MulTBInto(New(a.rows, b.rows), a, b)
}

// Apply returns a new matrix whose elements are f(i, j, m[i][j]).
func (m *Dense) Apply(f func(i, j int, v float64) float64) *Dense {
	out := New(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[i*m.cols+j] = f(i, j, m.data[i*m.cols+j])
		}
	}
	return out
}

// Max returns the maximum element value.
func (m *Dense) Max() float64 {
	max := m.data[0]
	for _, v := range m.data[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// Min returns the minimum element value.
func (m *Dense) Min() float64 {
	min := m.data[0]
	for _, v := range m.data[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// MaxAbs returns the maximum absolute element value.
func (m *Dense) MaxAbs() float64 {
	var max float64
	for _, v := range m.data {
		if v < 0 {
			v = -v
		}
		if v > max {
			max = v
		}
	}
	return max
}

// ColSums returns the per-column sums.
func (m *Dense) ColSums() []float64 {
	out := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

func checkSameDims(op string, a, b *Dense) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: %s dimension mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}
