package mat

import "math"

// SVTInto writes the singular value thresholding of a into dst. dst must
// not alias a. The SVD itself still allocates; only the reconstruction
// reuses dst.
func SVTInto(dst, a *Dense, tau float64) *Dense {
	checkSameDims("SVTInto", dst, a)
	checkNoAlias("SVTInto", dst, a)
	f := FactorSVD(a)
	for i := range dst.data {
		dst.data[i] = 0
	}
	uc, vc := f.U.cols, f.V.cols
	for t, sv := range f.S {
		shrunk := sv - tau
		if shrunk <= 0 {
			break // singular values are sorted; all later ones shrink to 0
		}
		for i := 0; i < a.rows; i++ {
			ui := f.U.data[i*uc+t]
			if ui == 0 {
				continue
			}
			scale := shrunk * ui
			row := dst.data[i*a.cols : (i+1)*a.cols]
			for j := 0; j < a.cols; j++ {
				row[j] += scale * f.V.data[j*vc+t]
			}
		}
	}
	return dst
}

// ShrinkColumns21Into writes the column-wise l2,1 shrinkage of a into
// dst. dst may alias a.
func ShrinkColumns21Into(dst, a *Dense, tau float64) *Dense {
	checkSameDims("ShrinkColumns21Into", dst, a)
	for j := 0; j < a.cols; j++ {
		var norm float64
		for i := 0; i < a.rows; i++ {
			v := a.data[i*a.cols+j]
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm <= tau {
			for i := 0; i < a.rows; i++ {
				dst.data[i*a.cols+j] = 0
			}
			continue
		}
		scale := (norm - tau) / norm
		for i := 0; i < a.rows; i++ {
			dst.data[i*a.cols+j] = a.data[i*a.cols+j] * scale
		}
	}
	return dst
}
