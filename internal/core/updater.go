package core

import (
	"fmt"

	"iupdater/internal/fingerprint"
	"iupdater/internal/mat"
)

// UpdaterConfig tunes the update pipeline of Fig 10.
type UpdaterConfig struct {
	// MICMethod selects the reference-location picker.
	MICMethod MICMethod
	// NumReferences is the number of reference locations; 0 uses the
	// matrix rank bound M (the paper's minimal choice, Claim 1).
	NumReferences int
	// LRR tunes the correlation solver.
	LRR LRRConfig
	// Reconstruction options are passed to the solver.
	Reconstruction []Option
}

// DefaultUpdaterConfig returns the production pipeline settings: the
// paper's method with the truncated-SVD warm start enabled. (The bare
// Reconstructor defaults to Algorithm 1's random initialization; the
// warm start converges to better optima — see the initialization
// ablation benchmark.)
func DefaultUpdaterConfig() UpdaterConfig {
	return UpdaterConfig{
		MICMethod:      MICQRCP,
		LRR:            DefaultLRRConfig(),
		Reconstruction: []Option{WithWarmStart(true)},
	}
}

// Updater is the persistent update pipeline: it holds the reference
// locations (MIC of the latest fingerprint matrix) and the inherent
// correlation matrix Z, and reconstructs fresh fingerprint matrices from
// no-decrease scans plus reference measurements.
type Updater struct {
	cfg      UpdaterConfig
	links    int
	perStrip int
	refs     []int
	z        *mat.Dense
}

// NewUpdater runs the Inherent Correlation Acquisition module on the
// latest (original or previously updated) fingerprint matrix: it extracts
// the MIC reference locations and solves LRR for Z. One Workspace is
// threaded through reference selection and the correlation solve, so the
// whole acquisition is allocation-lean.
func NewUpdater(latest fingerprint.Matrix, cfg UpdaterConfig) (*Updater, error) {
	if cfg.LRR.MaxIter == 0 {
		cfg.LRR = DefaultLRRConfig()
	}
	numRefs := cfg.NumReferences
	if numRefs <= 0 {
		numRefs = latest.Links
	}
	ws := mat.GetWorkspace()
	defer ws.Release()
	refs, err := micWith(ws, latest.X, numRefs, cfg.MICMethod)
	if err != nil {
		return nil, fmt.Errorf("core: selecting reference locations: %w", err)
	}
	xmic := ws.Dense(latest.X.Rows(), len(refs))
	mat.SelectColsInto(xmic, latest.X, refs)
	lrr, err := lrrWith(ws, latest.X, xmic, cfg.LRR)
	ws.Free(xmic)
	if err != nil {
		return nil, fmt.Errorf("core: acquiring correlation matrix: %w", err)
	}
	return &Updater{
		cfg:      cfg,
		links:    latest.Links,
		perStrip: latest.PerStrip,
		refs:     refs,
		z:        lrr.Z,
	}, nil
}

// ReferenceLocations returns the grid cells (ascending) where fresh
// measurements must be taken for the next update.
func (u *Updater) ReferenceLocations() []int {
	out := make([]int, len(u.refs))
	copy(out, u.refs)
	return out
}

// Update reconstructs the fingerprint matrix at time t from the
// no-decrease scan (xb, mask) and the fresh reference matrix xr whose
// columns correspond to ReferenceLocations() in order.
func (u *Updater) Update(xb *mat.Dense, mask fingerprint.Mask, xr *mat.Dense, t float64) (fingerprint.Matrix, *Result, error) {
	if xr != nil {
		if _, cols := xr.Dims(); cols != len(u.refs) {
			return fingerprint.Matrix{}, nil, fmt.Errorf(
				"core: reference matrix has %d columns, want %d", cols, len(u.refs))
		}
	}
	rc := NewReconstructor(u.cfg.Reconstruction...)
	res, err := rc.Reconstruct(Input{
		XB:       xb,
		B:        mask.B,
		XR:       xr,
		Z:        u.z,
		Links:    u.links,
		PerStrip: u.perStrip,
	})
	if err != nil {
		return fingerprint.Matrix{}, nil, err
	}
	return fingerprint.New(res.X, t), res, nil
}
