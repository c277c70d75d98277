package mat

import "fmt"

// This file holds the destination-passing ("Into") kernel layer: every
// kernel writes its result into a caller-owned matrix and allocates
// nothing, so hot loops (the ALS reconstruction sweeps, the LRR
// iteration) can run against reusable buffers from a Workspace.
//
// Aliasing rules:
//
//   - element-wise kernels (AddInto, SubInto, ScaleInto, HadamardInto,
//     AddScaledInto, CopyInto) allow dst to alias either operand;
//   - multiply and transpose kernels (MulInto, MulTAInto, MulTBInto,
//     MulSparseInto, TransposeInto) require dst to be distinct from both
//     operands and panic when dst shares a backing array with one.
//
// Each kernel returns dst for call chaining.

// mulBlockK is the middle-dimension tile of the blocked multiply
// kernels: a tile of b rows (mulBlockK x cols) is kept hot in cache
// across the rows of a. Tiles are walked in increasing k order, so the
// per-element accumulation order — and therefore the floating-point
// result — is identical to the naive i-k-j loop.
const mulBlockK = 128

func checkNoAlias(op string, dst, a *Dense) {
	if len(dst.data) > 0 && len(a.data) > 0 && &dst.data[0] == &a.data[0] {
		panic(fmt.Sprintf("mat: %s destination aliases an operand", op))
	}
}

// CopyInto copies a into dst (the chainable spelling of Dense.CopyFrom).
func CopyInto(dst, a *Dense) *Dense {
	dst.CopyFrom(a)
	return dst
}

// AddInto computes dst = a + b. dst may alias a or b.
func AddInto(dst, a, b *Dense) *Dense {
	checkSameDims("AddInto", a, b)
	checkSameDims("AddInto", dst, a)
	for i, av := range a.data {
		dst.data[i] = av + b.data[i]
	}
	return dst
}

// SubInto computes dst = a - b. dst may alias a or b.
func SubInto(dst, a, b *Dense) *Dense {
	checkSameDims("SubInto", a, b)
	checkSameDims("SubInto", dst, a)
	for i, av := range a.data {
		dst.data[i] = av - b.data[i]
	}
	return dst
}

// ScaleInto computes dst = s * a. dst may alias a.
func ScaleInto(dst *Dense, s float64, a *Dense) *Dense {
	checkSameDims("ScaleInto", dst, a)
	for i, av := range a.data {
		dst.data[i] = s * av
	}
	return dst
}

// HadamardInto computes the element-wise product dst = a .* b. dst may
// alias a or b.
func HadamardInto(dst, a, b *Dense) *Dense {
	checkSameDims("HadamardInto", a, b)
	checkSameDims("HadamardInto", dst, a)
	for i, av := range a.data {
		dst.data[i] = av * b.data[i]
	}
	return dst
}

// AddScaledInto computes dst += s * a (the matrix axpy). dst may alias a.
func AddScaledInto(dst *Dense, s float64, a *Dense) *Dense {
	checkSameDims("AddScaledInto", dst, a)
	for i, av := range a.data {
		dst.data[i] += s * av
	}
	return dst
}

// MulInto computes dst = a * b with a cache-blocked, branch-free dense
// kernel. For genuinely sparse operands (0/1 masks) use MulSparseInto,
// which skips zero entries of a.
func MulInto(dst, a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MulInto dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MulInto destination is %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.cols))
	}
	checkNoAlias("MulInto", dst, a)
	checkNoAlias("MulInto", dst, b)
	for i := range dst.data {
		dst.data[i] = 0
	}
	// k-blocked i-k-j order: the inner loop is contiguous for both b and
	// dst, and a mulBlockK-row tile of b stays cache-hot across all rows
	// of a. k increases monotonically per output element, so results are
	// bit-identical to the unblocked loop.
	for k0 := 0; k0 < a.cols; k0 += mulBlockK {
		k1 := k0 + mulBlockK
		if k1 > a.cols {
			k1 = a.cols
		}
		for i := 0; i < a.rows; i++ {
			arow := a.data[i*a.cols : (i+1)*a.cols]
			orow := dst.data[i*dst.cols : (i+1)*dst.cols]
			for k := k0; k < k1; k++ {
				av := arow[k]
				brow := b.data[k*b.cols : (k+1)*b.cols]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
	return dst
}

// MulSparseInto computes dst = a * b, skipping zero entries of a. It is
// the masked-multiply kernel for operands that are genuinely sparse —
// 0/1 index masks, banded difference operators — where skipping beats
// the branch-free dense tile. Results equal MulInto for finite inputs.
func MulSparseInto(dst, a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MulSparseInto dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MulSparseInto destination is %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.cols))
	}
	checkNoAlias("MulSparseInto", dst, a)
	checkNoAlias("MulSparseInto", dst, b)
	for i := range dst.data {
		dst.data[i] = 0
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := dst.data[i*dst.cols : (i+1)*dst.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return dst
}

// MulTAInto computes dst = aᵀ * b without materializing the transpose.
func MulTAInto(dst, a, b *Dense) *Dense {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: MulTAInto dimension mismatch %dx%d ᵀ* %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.cols || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MulTAInto destination is %dx%d, want %dx%d", dst.rows, dst.cols, a.cols, b.cols))
	}
	checkNoAlias("MulTAInto", dst, a)
	checkNoAlias("MulTAInto", dst, b)
	for i := range dst.data {
		dst.data[i] = 0
	}
	for k := 0; k < a.rows; k++ {
		arow := a.data[k*a.cols : (k+1)*a.cols]
		brow := b.data[k*b.cols : (k+1)*b.cols]
		for i, av := range arow {
			orow := dst.data[i*dst.cols : (i+1)*dst.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return dst
}

// MulTBInto computes dst = a * bᵀ without materializing the transpose.
func MulTBInto(dst, a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulTBInto dimension mismatch %dx%d *ᵀ %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.rows {
		panic(fmt.Sprintf("mat: MulTBInto destination is %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.rows))
	}
	checkNoAlias("MulTBInto", dst, a)
	checkNoAlias("MulTBInto", dst, b)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		for j := 0; j < b.rows; j++ {
			brow := b.data[j*b.cols : (j+1)*b.cols]
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			dst.data[i*dst.cols+j] = s
		}
	}
	return dst
}

// SelectColsInto copies the columns of a listed in idx, in order, into
// dst, which must be a.rows x len(idx).
func SelectColsInto(dst, a *Dense, idx []int) *Dense {
	if len(idx) == 0 {
		panic("mat: SelectColsInto requires at least one column")
	}
	if dst.rows != a.rows || dst.cols != len(idx) {
		panic(fmt.Sprintf("mat: SelectColsInto destination is %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, len(idx)))
	}
	checkNoAlias("SelectColsInto", dst, a)
	for k, j := range idx {
		a.checkIndex(0, j)
		for i := 0; i < a.rows; i++ {
			dst.data[i*dst.cols+k] = a.data[i*a.cols+j]
		}
	}
	return dst
}
