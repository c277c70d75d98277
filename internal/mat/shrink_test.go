package mat

import (
	"math"
	"math/rand"
	"testing"
)

// svt is SVTInto into a fresh destination.
func svt(a *Dense, tau float64) *Dense { return SVTInto(New(a.rows, a.cols), a, tau) }

func TestSVTShrinksSingularValues(t *testing.T) {
	a := diagonal([]float64{5, 3, 1})
	out := svt(a, 2)
	s := SingularValues(out)
	want := []float64{3, 1, 0}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-10 {
			t.Errorf("s[%d] = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestSVTZeroTauIsIdentityOp(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := random(4, 6, rng)
	if !svt(a, 0).EqualApprox(a, 1e-9) {
		t.Error("SVT(A, 0) != A")
	}
}

func TestSVTLargeTauGivesZero(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := random(4, 6, rng)
	s := SingularValues(a)
	out := svt(a, s[0]+1)
	if FrobeniusNorm(out) > 1e-12 {
		t.Error("SVT with tau > s_max is not zero")
	}
}

func TestSVTIsProximalMinimizer(t *testing.T) {
	// The SVT output must achieve a lower proximal objective
	// tau*||X||_* + 0.5*||X-A||F² than nearby perturbations.
	rng := rand.New(rand.NewSource(43))
	a := random(5, 5, rng)
	const tau = 0.3
	x := svt(a, tau)
	obj := func(m *Dense) float64 {
		return tau*nuclearNorm(m) + 0.5*FrobeniusNormSq(SubM(m, a))
	}
	base := obj(x)
	for trial := 0; trial < 10; trial++ {
		pert := AddM(x, Scale(0.01, random(5, 5, rng)))
		if obj(pert) < base-1e-9 {
			t.Fatalf("perturbation beats SVT output: %v < %v", obj(pert), base)
		}
	}
}

func TestShrinkColumns21(t *testing.T) {
	a := NewFromRows([][]float64{
		{3, 0.1},
		{4, 0.1},
	})
	out := ShrinkColumns21Into(New(a.rows, a.cols), a, 1)
	// Column 0 has norm 5 -> scaled by 4/5. Column 1 has norm ~0.141 < 1 -> zero.
	if math.Abs(out.At(0, 0)-2.4) > 1e-12 || math.Abs(out.At(1, 0)-3.2) > 1e-12 {
		t.Errorf("column 0 = (%v, %v), want (2.4, 3.2)", out.At(0, 0), out.At(1, 0))
	}
	if out.At(0, 1) != 0 || out.At(1, 1) != 0 {
		t.Error("small column was not zeroed")
	}
}

func TestShrinkColumns21NormReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := random(6, 8, rng)
	out := ShrinkColumns21Into(New(a.rows, a.cols), a, 0.2)
	inNorms := colNorms(a)
	outNorms := colNorms(out)
	for j := range inNorms {
		wantNorm := inNorms[j] - 0.2
		if wantNorm < 0 {
			wantNorm = 0
		}
		if math.Abs(outNorms[j]-wantNorm) > 1e-10 {
			t.Errorf("col %d: norm %v, want %v", j, outNorms[j], wantNorm)
		}
	}
}

func TestToeplitzBandMatchesPaperH(t *testing.T) {
	// Eqn 17: central diagonal 1, first lower diagonal -1, rest 0.
	h := ToeplitzBand(4, -1, 1, 0)
	want := NewFromRows([][]float64{
		{1, 0, 0, 0},
		{-1, 1, 0, 0},
		{0, -1, 1, 0},
		{0, 0, -1, 1},
	})
	if !h.Equal(want) {
		t.Errorf("H =\n%vwant\n%v", h, want)
	}
}
