package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestSVDKnownDiagonal(t *testing.T) {
	a := diagonal([]float64{3, 1, 2})
	s := SingularValues(a)
	want := []float64{3, 2, 1}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-12 {
			t.Errorf("s[%d] = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := []struct{ m, n int }{
		{4, 4}, {8, 3}, {3, 8}, {8, 94}, {6, 72}, {1, 5}, {5, 1},
	}
	for _, sh := range shapes {
		a := random(sh.m, sh.n, rng)
		f := FactorSVD(a)
		if !reconstruct(f).EqualApprox(a, 1e-9) {
			t.Errorf("%dx%d: U S Vᵀ != A", sh.m, sh.n)
		}
	}
}

func TestSVDOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := random(6, 9, rng)
	f := FactorSVD(a)
	k := 6
	if !MulTA(f.U, f.U).EqualApprox(Identity(k), 1e-9) {
		t.Error("UᵀU != I")
	}
	if !MulTA(f.V, f.V).EqualApprox(Identity(k), 1e-9) {
		t.Error("VᵀV != I")
	}
}

func TestSVDSingularValuesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := random(7, 5, rng)
	s := SingularValues(a)
	for i := 1; i < len(s); i++ {
		if s[i] > s[i-1]+1e-15 {
			t.Errorf("singular values not sorted: s[%d]=%v > s[%d]=%v", i, s[i], i-1, s[i-1])
		}
	}
	for _, v := range s {
		if v < 0 {
			t.Errorf("negative singular value %v", v)
		}
	}
}

func TestSVDMatchesFrobenius(t *testing.T) {
	// ||A||F² = sum of squared singular values.
	rng := rand.New(rand.NewSource(24))
	a := random(5, 8, rng)
	s := SingularValues(a)
	var ssq float64
	for _, v := range s {
		ssq += v * v
	}
	if f := FrobeniusNormSq(a); math.Abs(ssq-f) > 1e-9*f {
		t.Errorf("sum s² = %v, ||A||F² = %v", ssq, f)
	}
}

// svdRank counts the singular values of a above tol * s_max: the
// numerical rank, as an oracle for rank-revealing factorizations.
func svdRank(a *Dense, tol float64) int {
	s := SingularValues(a)
	r := 0
	for _, v := range s {
		if v > tol*s[0] {
			r++
		}
	}
	return r
}

// nuclearNorm sums the singular values of m.
func nuclearNorm(m *Dense) float64 {
	var s float64
	for _, v := range SingularValues(m) {
		s += v
	}
	return s
}
