package loc

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"iupdater/internal/mat"
)

// SVRConfig tunes the epsilon-insensitive support vector regressor.
type SVRConfig struct {
	// C is the box constraint on the dual coefficients.
	C float64
	// Epsilon is the insensitive-tube half width (in target units).
	Epsilon float64
	// Gamma is the RBF kernel width; <= 0 selects the median heuristic
	// 1/(2*median²) over pairwise training distances.
	Gamma float64
	// MaxIter bounds the coordinate-descent sweeps.
	MaxIter int
	// Tol stops training when the largest coefficient change in a sweep
	// falls below it.
	Tol float64
}

// DefaultSVRConfig returns a configuration that works well on
// standardized RSS features.
func DefaultSVRConfig() SVRConfig {
	return SVRConfig{C: 10, Epsilon: 0.05, Gamma: 0, MaxIter: 500, Tol: 1e-5}
}

// SVR is an RBF-kernel epsilon-SVR trained by dual coordinate descent
// (the two-variable SMO subproblem collapses to a one-variable proximal
// update when the bias is absorbed into the kernel as a +1 offset).
// Features are standardized internally.
type SVR struct {
	cfg     SVRConfig
	x       *mat.Dense // standardized training inputs, one row per sample
	beta    []float64
	mean    []float64
	std     []float64
	gamma   float64
	trained bool
}

// NewSVR creates an untrained SVR.
func NewSVR(cfg SVRConfig) *SVR {
	if cfg.C <= 0 {
		cfg.C = 10
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 500
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-5
	}
	return &SVR{cfg: cfg}
}

// Fit trains on rows of x (n samples by d features) against targets y.
func (s *SVR) Fit(x *mat.Dense, y []float64) error {
	n, d := x.Dims()
	if len(y) != n {
		return fmt.Errorf("loc: SVR has %d samples but %d targets", n, len(y))
	}
	if n < 2 {
		return errors.New("loc: SVR needs at least two samples")
	}

	// Standardize features.
	s.mean = make([]float64, d)
	s.std = make([]float64, d)
	for j := 0; j < d; j++ {
		var m float64
		for i := 0; i < n; i++ {
			m += x.At(i, j)
		}
		m /= float64(n)
		var v float64
		for i := 0; i < n; i++ {
			diff := x.At(i, j) - m
			v += diff * diff
		}
		v = math.Sqrt(v / float64(n))
		if v == 0 {
			v = 1
		}
		s.mean[j], s.std[j] = m, v
	}
	xs := mat.New(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			xs.Set(i, j, (x.At(i, j)-s.mean[j])/s.std[j])
		}
	}
	s.x = xs

	// Median-heuristic gamma.
	s.gamma = s.cfg.Gamma
	if s.gamma <= 0 {
		s.gamma = medianHeuristicGamma(xs)
	}

	// Precompute the kernel matrix with the +1 bias offset.
	k := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := s.rbf(xs.Row(i), xs.Row(j)) + 1
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}

	// Dual coordinate descent on
	//   min ½βᵀKβ - βᵀy + ε·||β||₁,  |β_i| <= C.
	s.beta = make([]float64, n)
	f := make([]float64, n) // f_i = Σ_j β_j K_ij
	for sweep := 0; sweep < s.cfg.MaxIter; sweep++ {
		var maxDelta float64
		for i := 0; i < n; i++ {
			kii := k.At(i, i)
			if kii <= 0 {
				continue
			}
			g := f[i] - y[i]
			z := s.beta[i] - g/kii
			// Soft threshold at ε/K_ii, clip to the box.
			tau := s.cfg.Epsilon / kii
			var nb float64
			switch {
			case z > tau:
				nb = z - tau
			case z < -tau:
				nb = z + tau
			}
			if nb > s.cfg.C {
				nb = s.cfg.C
			} else if nb < -s.cfg.C {
				nb = -s.cfg.C
			}
			delta := nb - s.beta[i]
			if delta == 0 {
				continue
			}
			s.beta[i] = nb
			for j := 0; j < n; j++ {
				f[j] += delta * k.At(i, j)
			}
			if ad := math.Abs(delta); ad > maxDelta {
				maxDelta = ad
			}
		}
		if maxDelta < s.cfg.Tol {
			break
		}
	}
	s.trained = true
	return nil
}

// Predict evaluates the regressor at the feature vector q.
func (s *SVR) Predict(q []float64) (float64, error) {
	if !s.trained {
		return 0, errors.New("loc: SVR not trained")
	}
	if len(q) != len(s.mean) {
		return 0, fmt.Errorf("loc: query has %d features, model has %d", len(q), len(s.mean))
	}
	qs := make([]float64, len(q))
	for j, v := range q {
		qs[j] = (v - s.mean[j]) / s.std[j]
	}
	var out float64
	n, _ := s.x.Dims()
	for i := 0; i < n; i++ {
		if s.beta[i] == 0 {
			continue
		}
		out += s.beta[i] * (s.rbf(s.x.Row(i), qs) + 1)
	}
	return out, nil
}

func (s *SVR) rbf(a, b []float64) float64 {
	var d float64
	for i := range a {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return math.Exp(-s.gamma * d)
}

// medianHeuristicGamma returns 1/(2*median²) of the pairwise Euclidean
// distances between rows of x.
func medianHeuristicGamma(x *mat.Dense) float64 {
	n, d := x.Dims()
	dists := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var s float64
			for c := 0; c < d; c++ {
				diff := x.At(i, c) - x.At(j, c)
				s += diff * diff
			}
			dists = append(dists, math.Sqrt(s))
		}
	}
	if len(dists) == 0 {
		return 1
	}
	sort.Float64s(dists)
	med := dists[len(dists)/2]
	if med == 0 {
		return 1
	}
	return 1 / (2 * med * med)
}
