package mat

import "math"

// FrobeniusNorm returns sqrt(sum of squared elements).
func FrobeniusNorm(m *Dense) float64 {
	// Scaled accumulation avoids overflow for extreme values.
	var scale, ssq float64 = 0, 1
	for _, v := range m.data {
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			ssq = 1 + ssq*(scale/av)*(scale/av)
			scale = av
		} else {
			ssq += (av / scale) * (av / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

// FrobeniusNormSq returns the squared Frobenius norm.
func FrobeniusNormSq(m *Dense) float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return s
}

// VecNorm2Sq returns the squared Euclidean norm of x.
func VecNorm2Sq(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}
