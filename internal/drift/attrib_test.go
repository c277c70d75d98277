package drift

import (
	"math"
	"testing"
)

// plainResidual is the exhaustive reference residual: the RMS distance
// between the centered query and the nearest centered toy column.
func plainResidual(y []float64) float64 {
	center := func(v []float64) []float64 {
		var mean float64
		for _, x := range v {
			mean += x
		}
		mean /= float64(len(v))
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x - mean
		}
		return out
	}
	yc := center(y)
	best := math.Inf(1)
	for _, col := range toyCols {
		cc := center(col)
		var d float64
		for i := range yc {
			d += (yc[i] - cc[i]) * (yc[i] - cc[i])
		}
		best = math.Min(best, d)
	}
	return math.Sqrt(best / float64(len(y)))
}

func TestResidualAttributedMatchesResidual(t *testing.T) {
	r := toyResidualizer()
	scratch := make([]float64, 4)
	perLink := make([]float64, 4)
	y := append([]float64(nil), toyCols[0]...)
	y[2] += 3
	plain := plainResidual(y)
	attr := r.ResidualAttributed(y, scratch, perLink)
	if math.Abs(plain-attr) > 1e-12 {
		t.Fatalf("attributed residual %g != plain %g", attr, plain)
	}
	// The per-link terms must reassemble the RMS exactly.
	var ss float64
	for _, e := range perLink {
		ss += e * e
	}
	if got := math.Sqrt(ss / 4); math.Abs(got-attr) > 1e-12 {
		t.Fatalf("per-link RMS %g != residual %g (perLink %v)", got, attr, perLink)
	}
}

func TestResidualAttributedBlamesDriftedLink(t *testing.T) {
	r := toyResidualizer()
	scratch := make([]float64, 4)
	perLink := make([]float64, 4)
	y := append([]float64(nil), toyCols[1]...)
	y[3] += 4 // link 3 drifted; centering spreads -1 to the others
	r.ResidualAttributed(y, scratch, perLink)
	for i := 0; i < 3; i++ {
		if perLink[3] <= perLink[i] {
			t.Fatalf("drifted link 3 error %g not dominant over link %d (%g): %v",
				perLink[3], i, perLink[i], perLink)
		}
	}
}

func TestResidualAttributedAllocationFree(t *testing.T) {
	r := toyResidualizer()
	scratch := make([]float64, 4)
	perLink := make([]float64, 4)
	y := append([]float64(nil), toyCols[2]...)
	if allocs := testing.AllocsPerRun(200, func() {
		r.ResidualAttributed(y, scratch, perLink)
	}); allocs != 0 {
		t.Errorf("ResidualAttributed allocates %.1f per call, want 0", allocs)
	}
}

func TestAttributionTopK(t *testing.T) {
	a := NewAttribution(5, 0.5)
	links := make([]int, 3)
	errs := make([]float64, 3)
	if n := a.TopK(links, errs); n != 0 {
		t.Fatalf("TopK before any observation = %d, want 0", n)
	}
	a.Observe([]float64{0.1, 2.0, 0.3, 5.0, 0.2})
	n := a.TopK(links, errs)
	if n != 3 {
		t.Fatalf("TopK filled %d, want 3", n)
	}
	if links[0] != 3 || links[1] != 1 || links[2] != 2 {
		t.Fatalf("top links %v (errs %v), want [3 1 2]", links[:n], errs[:n])
	}
	if !(errs[0] >= errs[1] && errs[1] >= errs[2]) {
		t.Fatalf("errors not descending: %v", errs[:n])
	}
}

func TestAttributionEWMAConvergesAndResets(t *testing.T) {
	a := NewAttribution(2, 0.1)
	sample := []float64{1, 3}
	for i := 0; i < 400; i++ {
		a.Observe(sample)
	}
	if math.Abs(a.ew[0]-1) > 1e-6 || math.Abs(a.ew[1]-3) > 1e-6 {
		t.Fatalf("EWMA did not converge: %g %g", a.ew[0], a.ew[1])
	}
	a.Reset()
	if a.n != 0 || a.ew[1] != 0 {
		t.Fatalf("Reset left state: n=%d err=%g", a.n, a.ew[1])
	}
}

func TestAttributionTopKTiesAreStable(t *testing.T) {
	a := NewAttribution(4, 0.5)
	a.Observe([]float64{2, 2, 2, 2})
	links := make([]int, 4)
	errs := make([]float64, 4)
	n := a.TopK(links, errs)
	if n != 4 {
		t.Fatalf("filled %d, want 4", n)
	}
	for i, l := range links {
		if l != i {
			t.Fatalf("tied links not in index order: %v", links)
		}
	}
}

func TestAttributionObserveAllocationFree(t *testing.T) {
	a := NewAttribution(8, 0)
	sample := make([]float64, 8)
	for i := range sample {
		sample[i] = float64(i)
	}
	a.Observe(sample)
	links := make([]int, 3)
	errs := make([]float64, 3)
	if allocs := testing.AllocsPerRun(200, func() {
		a.Observe(sample)
		a.TopK(links, errs)
	}); allocs != 0 {
		t.Errorf("Observe+TopK allocates %.1f per call, want 0", allocs)
	}
}
