package core

import (
	"errors"
	"fmt"
	"math"

	"iupdater/internal/mat"
)

// LRRConfig tunes the inexact augmented-Lagrange-multiplier solver for the
// low-rank representation problem of Eqn 12:
//
//	min_{Z,E} ||Z||_* + eps*||E||_{2,1}   s.t.  X = X_MIC * Z + E
type LRRConfig struct {
	// Epsilon weighs the corruption term (the paper's ε).
	Epsilon float64
	// MaxIter bounds the ALM iterations.
	MaxIter int
	// Tol is the convergence tolerance on the constraint residuals,
	// relative to ||X||_F.
	Tol float64
	// Mu0 is the initial penalty parameter; Rho its growth factor;
	// MuMax its cap.
	Mu0, Rho, MuMax float64
}

// DefaultLRRConfig returns the solver settings used throughout the
// reproduction (standard inexact-ALM constants from Liu-Lin-Yu).
func DefaultLRRConfig() LRRConfig {
	return LRRConfig{
		Epsilon: 2.0,
		MaxIter: 500,
		Tol:     1e-7,
		Mu0:     1e-4,
		Rho:     1.2,
		MuMax:   1e10,
	}
}

// LRRResult holds the correlation matrix Z and the column-sparse
// corruption E recovered by LRR, with X ≈ X_MIC*Z + E.
type LRRResult struct {
	Z          *mat.Dense
	E          *mat.Dense
	Iterations int
	// Residual is ||X - X_MIC*Z - E||_F / ||X||_F at termination.
	Residual float64
}

// LRR solves Eqn 12 by inexact ALM, returning the inherent correlation
// matrix Z between the MIC reference columns and the whole fingerprint
// matrix. Z is the quantity the Inherent Correlation Acquisition module
// of Fig 10 stores for future updates: a fresh reference matrix X_R then
// predicts the whole fresh fingerprint matrix as X_R*Z.
func LRR(x, xmic *mat.Dense, cfg LRRConfig) (*LRRResult, error) {
	ws := mat.GetWorkspace()
	defer ws.Release()
	return lrrWith(ws, x, xmic, cfg)
}

// lrrWith is LRR running its iteration entirely against ws-borrowed
// buffers and the in-place kernel layer: only the returned Z and E (and
// the SVT's internal SVD) allocate.
func lrrWith(ws *mat.Workspace, x, xmic *mat.Dense, cfg LRRConfig) (*LRRResult, error) {
	m, n := x.Dims()
	mm, r := xmic.Dims()
	if mm != m {
		return nil, fmt.Errorf("core: LRR row mismatch: X is %dx%d, X_MIC is %dx%d", m, n, mm, r)
	}
	if cfg.Epsilon <= 0 || cfg.MaxIter <= 0 {
		return nil, errors.New("core: LRR requires positive Epsilon and MaxIter")
	}

	normX := mat.FrobeniusNorm(x)
	if normX == 0 {
		return &LRRResult{Z: mat.New(r, n), E: mat.New(m, n)}, nil
	}

	// Precompute the Cholesky factor of (I + AᵀA) for the Z update.
	ata := ws.Dense(r, r)
	mat.MulTAInto(ata, xmic, xmic)
	for i := 0; i < r; i++ {
		ata.Add(i, i, 1)
	}
	var chol mat.Cholesky
	if err := chol.Factor(ata); err != nil {
		ws.Free(ata)
		return nil, fmt.Errorf("core: LRR normal equations not SPD: %w", err)
	}
	ws.Free(ata)

	z := mat.New(r, n) // returned
	e := mat.New(m, n) // returned
	jm := ws.Dense(r, n)
	y1 := ws.Dense(m, n) // multiplier for X = AZ + E
	y2 := ws.Dense(r, n) // multiplier for Z = J
	tr := ws.Dense(r, n) // r x n scratch
	rhs := ws.Dense(r, n)
	az := ws.Dense(m, n)
	xe := ws.Dense(m, n) // m x n scratch
	r1 := ws.Dense(m, n)
	r2 := ws.Dense(r, n)
	defer func() {
		for _, b := range []*mat.Dense{jm, y1, y2, tr, rhs, az, xe, r1, r2} {
			ws.Free(b)
		}
	}()
	mu := cfg.Mu0

	var res1, res2 float64
	iter := 0
	for ; iter < cfg.MaxIter; iter++ {
		// J update: SVT of Z + Y2/mu at threshold 1/mu.
		mat.CopyInto(tr, z)
		mat.AddScaledInto(tr, 1/mu, y2)
		mat.SVTInto(jm, tr, 1/mu)

		// Z update: (I + AᵀA)⁻¹ (Aᵀ(X-E) + J + (AᵀY1 - Y2)/mu).
		mat.SubInto(xe, x, e)
		mat.MulTAInto(rhs, xmic, xe)
		mat.AddInto(rhs, rhs, jm)
		mat.MulTAInto(tr, xmic, y1)
		mat.SubInto(tr, tr, y2)
		mat.AddScaledInto(rhs, 1/mu, tr)
		chol.SolveInto(z, rhs)

		// E update: column-wise shrinkage at eps/mu.
		mat.MulInto(az, xmic, z)
		mat.SubInto(xe, x, az)
		mat.AddScaledInto(xe, 1/mu, y1)
		mat.ShrinkColumns21Into(e, xe, cfg.Epsilon/mu)

		// Multiplier and penalty updates.
		mat.SubInto(r1, x, az)
		mat.SubInto(r1, r1, e) // X - AZ - E
		mat.SubInto(r2, z, jm) // Z - J
		mat.AddScaledInto(y1, mu, r1)
		mat.AddScaledInto(y2, mu, r2)
		mu = math.Min(mu*cfg.Rho, cfg.MuMax)

		res1 = mat.FrobeniusNorm(r1) / normX
		res2 = mat.FrobeniusNorm(r2) / normX
		if res1 < cfg.Tol && res2 < cfg.Tol {
			iter++
			break
		}
	}
	return &LRRResult{Z: z, E: e, Iterations: iter, Residual: res1}, nil
}
