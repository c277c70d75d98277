package mat

// ToeplitzBand returns the n x n banded Toeplitz matrix with the given
// sub-diagonal, diagonal and super-diagonal constants. The paper's
// similarity matrix H = Toeplitz(-1, 1, 0) (Eqn 17) is
// ToeplitzBand(n, -1, 1, 0).
func ToeplitzBand(n int, sub, diag, super float64) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = diag
		if i > 0 {
			m.data[i*n+i-1] = sub
		}
		if i < n-1 {
			m.data[i*n+i+1] = super
		}
	}
	return m
}
