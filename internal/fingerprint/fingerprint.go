// Package fingerprint defines the fingerprint-database structures of the
// paper: the M x N fingerprint matrix X (Definition 1), the no-decrease
// index matrix B (Eqn 8), the largely-decrease matrix X_D (Definition 2),
// the neighbor relationship matrix T (Eqn 4), the continuity matrix G
// (Eqns 14-16), the adjacent-link similarity matrix H (Eqn 17), and the
// NLC/ALS statistics (Eqns 5-6) used to validate Observations 2 and 3.
package fingerprint

import (
	"fmt"

	"iupdater/internal/mat"
)

// Matrix is a fingerprint matrix with deployment metadata. X(i, j) is the
// RSS reading of link i with the target at location j; locations are
// strip-major (location j belongs to link j/PerStrip's strip).
type Matrix struct {
	// X is the M x N matrix of RSS readings in dBm.
	X *mat.Dense
	// Links is M, the number of links (and strips).
	Links int
	// PerStrip is K = N/M, the number of cells along each strip.
	PerStrip int
	// CollectedAt is the survey time in seconds since the original survey.
	CollectedAt float64
}

// New wraps an M x N matrix as a fingerprint matrix. The number of
// columns must be an exact multiple of the number of rows' strips
// (N = links * perStrip).
func New(x *mat.Dense, collectedAt float64) Matrix {
	m, n := x.Dims()
	if n%m != 0 {
		panic(fmt.Sprintf("fingerprint: N=%d not divisible by M=%d", n, m))
	}
	return Matrix{X: x, Links: m, PerStrip: n / m, CollectedAt: collectedAt}
}

// LargeDecrease extracts the largely-decrease matrix X_D (Definition 2):
// the M x K submatrix of entries where the target blocks the direct path,
// X_D(i, u) = X(i, i*K + u).
func (f Matrix) LargeDecrease() *mat.Dense {
	xd := mat.New(f.Links, f.PerStrip)
	for i := 0; i < f.Links; i++ {
		for u := 0; u < f.PerStrip; u++ {
			xd.Set(i, u, f.X.At(i, i*f.PerStrip+u))
		}
	}
	return xd
}

// Relationship returns the K x K neighbor relationship matrix T (Eqn 4):
// T(p, q) = 1 when p and q are neighboring locations along a strip.
func Relationship(k int) *mat.Dense {
	if k <= 0 {
		panic("fingerprint: Relationship requires k > 0")
	}
	t := mat.New(k, k)
	for p := 0; p < k; p++ {
		if p > 0 {
			t.Set(p, p-1, 1)
		}
		if p < k-1 {
			t.Set(p, p+1, 1)
		}
	}
	return t
}

// Continuity returns the K x K continuity matrix G of Eqns 14-16: the
// column-normalized version of T - diag(colsum(T)), with the middle
// column(s) re-defined to penalize asymmetry rather than deviation from
// the neighbor average. The paper re-defines the middle columns because
// the RSS along a link first rises and then falls (the V-shape of the
// knife-edge loss), so the V's bottom would otherwise be penalized as a
// discontinuity.
func Continuity(k int) *mat.Dense {
	if k <= 0 {
		panic("fingerprint: Continuity requires k > 0")
	}
	t := Relationship(k)
	// G* = T - diag(column sums of T).
	gstar := t.Clone()
	colSums := t.ColSums()
	for p := 0; p < k; p++ {
		gstar.Set(p, p, -colSums[p])
	}
	// Column-normalize so each diagonal becomes +1 (divide column p by
	// -G*(p,p), i.e. by the neighbor count).
	g := mat.New(k, k)
	for p := 0; p < k; p++ {
		d := -gstar.At(p, p)
		if d == 0 {
			continue
		}
		for i := 0; i < k; i++ {
			g.Set(i, p, -gstar.At(i, p)/d)
		}
	}
	// Midpoint re-definition (Eqns 15-16). The paper's p is 1-based:
	// p = (K-1)/2 + 1, so the 0-based midpoint is m = (K-1)/2.
	redefine := func(p int) {
		if p < 0 || p >= k {
			return
		}
		for i := 0; i < k; i++ {
			g.Set(i, p, 0)
		}
		if p+1 < k {
			g.Set(p+1, p, 1)
		}
		if p-1 >= 0 {
			g.Set(p-1, p, -1)
		}
	}
	if (k-1)%2 == 0 {
		redefine((k - 1) / 2)
	} else {
		redefine((k - 1) / 2)
		redefine((k-1)/2 + 1)
	}
	return g
}

// Similarity returns the M x M adjacent-link similarity matrix
// H = Toeplitz(-1, 1, 0) of Eqn 17.
func Similarity(m int) *mat.Dense {
	if m <= 0 {
		panic("fingerprint: Similarity requires m > 0")
	}
	return mat.ToeplitzBand(m, -1, 1, 0)
}

// NLC computes the normalized location-continuity values of Eqn 5 for
// every entry of the largely-decrease matrix xd: the absolute difference
// between an entry and the mean of its strip neighbors, normalized by the
// full dynamic range of |xd|. Small values mean the RSS is continuous
// along the link (Observation 2).
func NLC(xd *mat.Dense) *mat.Dense {
	m, k := xd.Dims()
	t := Relationship(k)
	absXD := xd.Apply(func(_, _ int, v float64) float64 {
		if v < 0 {
			return -v
		}
		return v
	})
	rangeAbs := absXD.Max() - absXD.Min()
	if rangeAbs == 0 {
		rangeAbs = 1
	}
	out := mat.New(m, k)
	for i := 0; i < m; i++ {
		for u := 0; u < k; u++ {
			var sum, cnt float64
			for w := 0; w < k; w++ {
				if t.At(w, u) == 1 {
					sum += absXD.At(i, w)
					cnt++
				}
			}
			avg := sum / cnt
			d := absXD.At(i, u) - avg
			if d < 0 {
				d = -d
			}
			out.Set(i, u, d/rangeAbs)
		}
	}
	return out
}

// ALS computes the adjacent-link similarity values of Eqn 6 for rows
// 1..M-1 of the largely-decrease matrix xd: |XD(i,u) - XD(i-1,u)|
// normalized by the largest difference between any two adjacent links.
// Small values mean adjacent links read similarly at the same relative
// location (Observation 3).
func ALS(xd *mat.Dense) *mat.Dense {
	m, k := xd.Dims()
	if m < 2 {
		panic("fingerprint: ALS requires at least two links")
	}
	diffs := mat.New(m-1, k)
	for i := 1; i < m; i++ {
		for u := 0; u < k; u++ {
			d := xd.At(i, u) - xd.At(i-1, u)
			if d < 0 {
				d = -d
			}
			diffs.Set(i-1, u, d)
		}
	}
	maxDiff := diffs.Max()
	if maxDiff == 0 {
		maxDiff = 1
	}
	return mat.Scale(1/maxDiff, diffs)
}
