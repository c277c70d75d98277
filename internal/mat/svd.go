package mat

import (
	"math"
	"sort"
)

// SVD holds a thin singular value decomposition A = U * diag(S) * Vᵀ with
// A of size m x n, U of size m x k, V of size n x k and k = min(m, n).
// Singular values are sorted in non-increasing order.
type SVD struct {
	U *Dense
	S []float64
	V *Dense
}

const (
	svdMaxSweeps = 60
	svdTol       = 1e-12
)

// FactorSVD computes the thin SVD of a using one-sided Jacobi rotations.
// One-sided Jacobi is slow for huge matrices but extremely robust and
// accurate; fingerprint matrices here are at most 8 x 120, where it is
// more than fast enough.
func FactorSVD(a *Dense) *SVD {
	m, n := a.rows, a.cols
	if m >= n {
		u, s, v := jacobiSVD(a)
		return &SVD{U: u, S: s, V: v}
	}
	// For wide matrices run on the transpose and swap U and V.
	u, s, v := jacobiSVD(a.T())
	return &SVD{U: v, S: s, V: u}
}

// jacobiSVD computes the thin SVD of a tall (m >= n) matrix via one-sided
// Jacobi: orthogonalize the columns of a working copy W = A*V by plane
// rotations; at convergence the column norms are the singular values.
func jacobiSVD(a *Dense) (u *Dense, s []float64, v *Dense) {
	m, n := a.rows, a.cols
	w := a.Clone()
	v = Identity(n)

	for sweep := 0; sweep < svdMaxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				// Compute the 2x2 Gram block for columns p, q.
				var app, aqq, apq float64
				for i := 0; i < m; i++ {
					wp := w.data[i*n+p]
					wq := w.data[i*n+q]
					app += wp * wp
					aqq += wq * wq
					apq += wp * wq
				}
				if math.Abs(apq) <= svdTol*math.Sqrt(app*aqq) {
					continue
				}
				off += apq * apq
				// Jacobi rotation that zeroes the off-diagonal entry.
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				sn := c * t
				for i := 0; i < m; i++ {
					wp := w.data[i*n+p]
					wq := w.data[i*n+q]
					w.data[i*n+p] = c*wp - sn*wq
					w.data[i*n+q] = sn*wp + c*wq
				}
				for i := 0; i < n; i++ {
					vp := v.data[i*n+p]
					vq := v.data[i*n+q]
					v.data[i*n+p] = c*vp - sn*vq
					v.data[i*n+q] = sn*vp + c*vq
				}
			}
		}
		if off == 0 {
			break
		}
	}

	// Extract singular values and left vectors.
	s = make([]float64, n)
	u = New(m, n)
	type col struct {
		norm float64
		idx  int
	}
	cols := make([]col, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			norm += w.data[i*n+j] * w.data[i*n+j]
		}
		cols[j] = col{norm: math.Sqrt(norm), idx: j}
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].norm > cols[j].norm })

	vsorted := New(n, n)
	for k, cj := range cols {
		s[k] = cj.norm
		j := cj.idx
		if cj.norm > 0 {
			inv := 1 / cj.norm
			for i := 0; i < m; i++ {
				u.data[i*n+k] = w.data[i*n+j] * inv
			}
		}
		for i := 0; i < n; i++ {
			vsorted.data[i*n+k] = v.data[i*n+j]
		}
	}
	return u, s, vsorted
}

// SingularValues returns the singular values of a in non-increasing order.
func SingularValues(a *Dense) []float64 {
	return FactorSVD(a).S
}
