package fingerprint

import "iupdater/internal/mat"

// Mask is the 0/1 index matrix B of Eqn 8: B(i, j) = 1 when entry (i, j)
// is a no-decrease element that can be measured without the target
// present, 0 when the entry requires the target ("labor-cost"
// measurement).
type Mask struct {
	B *mat.Dense
}

// NewMask builds a mask from an affected predicate: affected(i, j)
// reports whether link i's reading changes when the target stands at
// cell j.
func NewMask(links, cells int, affected func(i, j int) bool) Mask {
	b := mat.New(links, cells)
	for i := 0; i < links; i++ {
		for j := 0; j < cells; j++ {
			if !affected(i, j) {
				b.Set(i, j, 1)
			}
		}
	}
	return Mask{B: b}
}

// Known reports whether entry (i, j) is measurable without the target.
func (m Mask) Known(i, j int) bool { return m.B.At(i, j) == 1 }

// Project returns B ∘ X: X restricted to the known entries, zero
// elsewhere.
func (m Mask) Project(x *mat.Dense) *mat.Dense {
	return mat.Hadamard(m.B, x)
}
