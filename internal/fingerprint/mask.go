package fingerprint

import (
	"fmt"

	"iupdater/internal/mat"
)

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

// KnownCount returns the number of no-decrease entries.
func (m Mask) KnownCount() int {
	var n int
	rows, cols := m.B.Dims()
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if m.B.At(i, j) == 1 {
				n++
			}
		}
	}
	return n
}

// Project returns B ∘ X: X restricted to the known entries, zero
// elsewhere.
func (m Mask) Project(x *mat.Dense) *mat.Dense {
	return mat.Hadamard(m.B, x)
}

// Validate checks structural invariants: entries are exactly 0 or 1.
func (m Mask) Validate() error {
	rows, cols := m.B.Dims()
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if v := m.B.At(i, j); v != 0 && v != 1 {
				return fmt.Errorf("fingerprint: mask entry (%d,%d) = %v, want 0 or 1", i, j, v)
			}
		}
	}
	return nil
}
