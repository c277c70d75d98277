package mat

import (
	"fmt"
	"math"
)

// QRCP holds a QR factorization with column pivoting: A*P = Q*R where P is
// a column permutation encoded by Perm (Perm[k] is the index of the
// original column in position k).
type QRCP struct {
	Perm     []int
	RDiag    []float64 // |diagonal of R|, non-increasing
	NumRows  int
	NumCols  int
	rangeTol float64
}

// FactorQRCP computes a rank-revealing QR factorization with column
// pivoting. It is the numerically robust way to find a maximum set of
// independent columns of a noisy matrix: the first rank(A) entries of Perm
// index the most independent columns.
func FactorQRCP(a *Dense) *QRCP {
	return FactorQRCPWorkspace(nil, a)
}

// FactorQRCPWorkspace is FactorQRCP with the working copy and scratch
// vectors borrowed from ws; a nil ws allocates them. Only the returned
// permutation and R diagonal stay allocated.
func FactorQRCPWorkspace(ws *Workspace, a *Dense) *QRCP {
	m, n := a.rows, a.cols
	var work *Dense
	var colNorm2, v []float64
	if ws != nil {
		work = CopyInto(ws.Dense(m, n), a)
		colNorm2 = ws.Vec(n)
		v = ws.Vec(m)
		defer func() {
			ws.Free(work)
			ws.FreeVec(colNorm2)
			ws.FreeVec(v)
		}()
	} else {
		work = a.Clone()
		colNorm2 = make([]float64, n)
		v = make([]float64, m)
	}
	perm := make([]int, n)
	for j := range perm {
		perm[j] = j
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			colNorm2[j] += work.data[i*n+j] * work.data[i*n+j]
		}
	}
	steps := m
	if n < m {
		steps = n
	}
	rdiag := make([]float64, steps)
	for k := 0; k < steps; k++ {
		// Pick the column with the largest remaining norm.
		p := k
		for j := k + 1; j < n; j++ {
			if colNorm2[j] > colNorm2[p] {
				p = j
			}
		}
		if p != k {
			perm[k], perm[p] = perm[p], perm[k]
			colNorm2[k], colNorm2[p] = colNorm2[p], colNorm2[k]
			for i := 0; i < m; i++ {
				work.data[i*n+k], work.data[i*n+p] = work.data[i*n+p], work.data[i*n+k]
			}
		}
		var norm float64
		for i := k; i < m; i++ {
			norm += work.data[i*n+k] * work.data[i*n+k]
		}
		norm = math.Sqrt(norm)
		rdiag[k] = norm
		if norm == 0 {
			continue
		}
		alpha := -norm
		if work.data[k*n+k] < 0 {
			alpha = norm
		}
		v[k] = work.data[k*n+k] - alpha
		for i := k + 1; i < m; i++ {
			v[i] = work.data[i*n+k]
		}
		vnorm2 := VecNorm2Sq(v[k:m])
		if vnorm2 == 0 {
			continue
		}
		beta := 2 / vnorm2
		for j := k; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += v[i] * work.data[i*n+j]
			}
			s *= beta
			for i := k; i < m; i++ {
				work.data[i*n+j] -= s * v[i]
			}
		}
		// Downdate remaining column norms.
		for j := k + 1; j < n; j++ {
			colNorm2[j] -= work.data[k*n+j] * work.data[k*n+j]
			if colNorm2[j] < 0 {
				colNorm2[j] = 0
			}
		}
	}
	return &QRCP{Perm: perm, RDiag: rdiag, NumRows: m, NumCols: n}
}

// IndependentCols returns the indices (in original column numbering) of
// the k most independent columns discovered by the pivoting.
func (f *QRCP) IndependentCols(k int) []int {
	if k <= 0 || k > len(f.RDiag) {
		panic(fmt.Sprintf("mat: IndependentCols k=%d out of range 1..%d", k, len(f.RDiag)))
	}
	out := make([]int, k)
	copy(out, f.Perm[:k])
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
