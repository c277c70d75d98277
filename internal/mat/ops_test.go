package mat

import (
	"math/rand"
	"testing"
)

func TestAddSubScale(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{10, 20}, {30, 40}})

	sum := AddM(a, b)
	if want := NewFromRows([][]float64{{11, 22}, {33, 44}}); !sum.Equal(want) {
		t.Errorf("AddM =\n%v", sum)
	}
	diff := SubM(b, a)
	if want := NewFromRows([][]float64{{9, 18}, {27, 36}}); !diff.Equal(want) {
		t.Errorf("SubM =\n%v", diff)
	}
	sc := Scale(2, a)
	if want := NewFromRows([][]float64{{2, 4}, {6, 8}}); !sc.Equal(want) {
		t.Errorf("Scale =\n%v", sc)
	}
}

func TestHadamard(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{0, 1}, {1, 0}})
	h := Hadamard(a, b)
	if want := NewFromRows([][]float64{{0, 2}, {3, 0}}); !h.Equal(want) {
		t.Errorf("Hadamard =\n%v", h)
	}
}

func TestMul(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := NewFromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	c := Mul(a, b)
	want := NewFromRows([][]float64{{58, 64}, {139, 154}})
	if !c.Equal(want) {
		t.Errorf("Mul =\n%vwant\n%v", c, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := random(4, 4, rng)
	if !Mul(a, Identity(4)).EqualApprox(a, 1e-14) {
		t.Error("A*I != A")
	}
	if !Mul(Identity(4), a).EqualApprox(a, 1e-14) {
		t.Error("I*A != A")
	}
}

func TestMulTAMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := random(5, 3, rng)
	b := random(5, 4, rng)
	got := MulTA(a, b)
	want := Mul(a.T(), b)
	if !got.EqualApprox(want, 1e-13) {
		t.Errorf("MulTA mismatch:\n%vvs\n%v", got, want)
	}
}

func TestMulTBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := random(4, 6, rng)
	b := random(5, 6, rng)
	got := MulTB(a, b)
	want := Mul(a, b.T())
	if !got.EqualApprox(want, 1e-13) {
		t.Errorf("MulTB mismatch:\n%vvs\n%v", got, want)
	}
}

func TestApply(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	got := a.Apply(func(i, j int, v float64) float64 { return v * v })
	if want := NewFromRows([][]float64{{1, 4}, {9, 16}}); !got.Equal(want) {
		t.Errorf("Apply =\n%v", got)
	}
}

func TestAggregates(t *testing.T) {
	a := NewFromRows([][]float64{{-3, 2}, {1, 4}})
	if got := a.Max(); got != 4 {
		t.Errorf("Max = %v, want 4", got)
	}
	if got := a.Min(); got != -3 {
		t.Errorf("Min = %v, want -3", got)
	}
	if got := a.MaxAbs(); got != 4 {
		t.Errorf("MaxAbs = %v, want 4", got)
	}
}

func TestColRowSums(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	cs := a.ColSums()
	for i, want := range []float64{5, 7, 9} {
		if cs[i] != want {
			t.Errorf("ColSums[%d] = %v, want %v", i, cs[i], want)
		}
	}
}

func TestMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mul with mismatched dims did not panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestMulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := random(3, 4, rng)
	b := random(4, 5, rng)
	c := random(5, 2, rng)
	left := Mul(Mul(a, b), c)
	right := Mul(a, Mul(b, c))
	if !left.EqualApprox(right, 1e-12) {
		t.Error("(AB)C != A(BC)")
	}
}
