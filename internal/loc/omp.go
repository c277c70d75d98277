// Package loc implements the Target Localization module of Fig 10: the
// greedy orthogonal-matching-pursuit matcher of Eqns 26-27, plus the
// baselines the paper compares against (nearest-column matching, to
// which K-nearest-neighbor voting reduces on a one-column-per-cell
// grid, and the SVR-based RASS system).
//
// All matchers run over a snapshot-time Index of the fingerprint
// columns: precomputed centered norms and per-shard centroid/radius
// bounds prune candidate columns without changing results, and a pooled
// per-query scratch keeps the hot paths allocation-free. An exhaustive
// tier is the reference the pruned search is checked against.
package loc

import (
	"errors"
	"fmt"

	"iupdater/internal/geom"
	"iupdater/internal/mat"
)

// Localizer estimates the grid cell of a target from an online RSS
// vector.
type Localizer interface {
	// Locate returns the estimated grid cell index for the online
	// measurement y (one value per link).
	Locate(y []float64) (int, error)
}

// OMPConfig tunes the OMP matcher.
type OMPConfig struct {
	// Xi is the squared-residual stopping threshold ξ of Eqn 27; <= 0
	// uses a default derived from the measurement dimension.
	Xi float64
	// MaxSparsity bounds the number of selected columns (1 target plus a
	// few correction columns); 0 defaults to 3.
	MaxSparsity int
}

// OMP matches online measurements against the columns of a fingerprint
// matrix by greedy orthogonal matching pursuit. The location estimate is
// the column whose (first, dominant) selection explains the measurement.
//
// Columns are mean-centered and normalized by the underlying Index: raw
// RSS columns all share a large common baseline component, which would
// otherwise make correlation-based greedy selection meaningless. The
// pursuit runs entirely on pooled scratch — Locate performs no
// allocations in steady state.
type OMP struct {
	cfg OMPConfig
	ix  *Index
	// colNorm is the centered-column-norm overlay the pursuit selects
	// against. It aliases the index's own norms by default; masked
	// matchers (see OMPPoint.maskedCopy) carry a copy with excluded
	// columns zeroed, sharing the index itself.
	colNorm []float64
}

// Compile-time interface check.
var _ Localizer = (*OMP)(nil)

// NewOMPIndex builds an OMP matcher over a prebuilt column index,
// sharing it with any other matchers built from the same index.
func NewOMPIndex(ix *Index, cfg OMPConfig) *OMP {
	if cfg.MaxSparsity <= 0 {
		cfg.MaxSparsity = 3
	}
	return &OMP{cfg: cfg, ix: ix, colNorm: ix.colNorms()}
}

// Locate implements Localizer via Eqn 27: greedily select the fingerprint
// columns most correlated with the residual, solve the restricted least
// squares, and stop when the residual falls below ξ. The first selected
// column — the dominant explanation of the measurement — is the location
// estimate.
func (o *OMP) Locate(y []float64) (int, error) {
	s, sel, _, err := o.pursue(y, nil)
	if err != nil {
		return 0, err
	}
	j := sel[0]
	o.ix.putScratch(s)
	return j, nil
}

// Pursue runs the greedy pursuit and returns the selected column indices
// in selection order.
func (o *OMP) Pursue(y []float64) ([]int, error) {
	s, sel, _, err := o.pursue(y, nil)
	if err != nil {
		return nil, err
	}
	out := append([]int(nil), sel...)
	o.ix.putScratch(s)
	return out, nil
}

// pursue is the scratch-backed pursuit core. On success it returns the
// scratch (which the caller must release with putScratch once done with
// sel and w), the selected columns in selection order, and their final
// least-squares weights — both views into the scratch. On error the
// scratch is already released.
//
// Each round selects the unselected column most correlated with the
// residual (via the index, so shard bounds prune the scan), re-solves
// the least squares over the selected unit columns with the in-scratch
// Householder QR, and recomputes the residual from the original
// columns. The weights of the final round are exactly the final-support
// solve PursueWeighted needs — no separate re-solve.
//
// info, when non-nil, accumulates this query's exact search cost
// (column/shard evaluations and pursuit rounds) for request-scoped
// tracing.
func (o *OMP) pursue(y []float64, info *SearchInfo) (*queryScratch, []int, []float64, error) {
	m, _ := o.ix.Dims()
	if len(y) != m {
		return nil, nil, nil, fmt.Errorf("loc: measurement has %d links, fingerprints have %d", len(y), m)
	}
	s := o.ix.getScratch()
	// Center the measurement the same way as the columns.
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(m)
	s.target = growF(s.target, m)
	s.resid = growF(s.resid, m)
	for i, v := range y {
		s.target[i] = v - mean
		s.resid[i] = s.target[i]
	}

	xi := o.cfg.Xi
	if xi <= 0 {
		// Default: stop once the residual is at the short-term noise
		// floor (~0.6 dB per link), so clean matches resolve to a single
		// column and only ambiguous measurements blend cells.
		xi = 0.35 * float64(m)
	}

	maxK := o.cfg.MaxSparsity
	s.sel = growI(s.sel, maxK)[:0]
	s.qr = growF(s.qr, m*maxK)
	s.v = growF(s.v, m)
	s.rhs = growF(s.rhs, m)
	s.w = growF(s.w, maxK)
	for len(s.sel) < maxK {
		j, corr := o.ix.bestCorr(s.resid, o.colNorm, s.sel, info)
		if info != nil {
			info.Rounds++
		}
		if j < 0 || corr == 0 {
			break
		}
		s.sel = append(s.sel, j)
		k := len(s.sel)
		// Re-solve the restricted least squares over the selected unit
		// columns; the QR working copy is destroyed by the solve, so the
		// columns are re-copied each round (k <= MaxSparsity, tiny).
		for ki, jj := range s.sel {
			copy(s.qr[ki*m:(ki+1)*m], o.ix.unitCol(jj))
		}
		copy(s.rhs, s.target)
		if err := lsSolve(s.qr[:k*m], m, k, s.rhs, s.v, s.w[:k]); err != nil {
			o.ix.putScratch(s)
			return nil, nil, nil, fmt.Errorf("loc: OMP least squares: %w", err)
		}
		copy(s.resid, s.target)
		for ki, jj := range s.sel {
			wk := s.w[ki]
			for i, uv := range o.ix.unitCol(jj) {
				s.resid[i] -= wk * uv
			}
		}
		if mat.VecNorm2Sq(s.resid) < xi {
			break
		}
	}
	if len(s.sel) == 0 {
		o.ix.putScratch(s)
		return nil, nil, nil, errors.New("loc: OMP selected no columns (zero measurement?)")
	}
	return s, s.sel, s.w[:len(s.sel)], nil
}

// OMPPoint couples an OMP matcher with the deployment grid to produce
// continuous position estimates: the estimate is the weight centroid of
// the pursued cells (negative weights clipped), which degrades gracefully
// when the measurement falls between grid cells or the fingerprints carry
// reconstruction noise.
type OMPPoint struct {
	OMP  *OMP
	Grid geom.Grid
}

// NewOMPPoint builds a continuous-output OMP localizer, indexing x with
// shards aligned to the grid's strips and default (pruned) search.
func NewOMPPoint(x *mat.Dense, grid geom.Grid, cfg OMPConfig) *OMPPoint {
	return NewOMPPointIndex(NewIndex(x, grid.PerStrip, IndexConfig{}), grid, cfg)
}

// NewOMPPointIndex builds a continuous-output OMP localizer over a
// prebuilt column index (typically the one published with a snapshot).
func NewOMPPointIndex(ix *Index, grid geom.Grid, cfg OMPConfig) *OMPPoint {
	return &OMPPoint{OMP: NewOMPIndex(ix, cfg), Grid: grid}
}

// LocatePoint returns the continuous position estimate for y.
func (op *OMPPoint) LocatePoint(y []float64) (geom.Point, error) {
	return op.LocatePointInfo(y, nil)
}

// LocatePointInfo is LocatePoint with per-query search-cost capture:
// when info is non-nil it accumulates exactly this query's column and
// shard evaluation counts and pursuit rounds (see SearchInfo).
func (op *OMPPoint) LocatePointInfo(y []float64, info *SearchInfo) (geom.Point, error) {
	s, sel, w, err := op.OMP.pursue(y, info)
	if err != nil {
		return geom.Point{}, err
	}
	var sumW, sx, sy float64
	for k, j := range sel {
		wk := w[k]
		if wk <= 0 {
			continue
		}
		c := op.Grid.Center(j)
		sumW += wk
		sx += wk * c.X
		sy += wk * c.Y
	}
	var p geom.Point
	if sumW == 0 {
		p = op.Grid.Center(sel[0])
	} else {
		p = geom.Point{X: sx / sumW, Y: sy / sumW}
	}
	op.OMP.ix.putScratch(s)
	return p, nil
}

// Locate implements Localizer by snapping the continuous estimate to its
// grid cell.
func (op *OMPPoint) Locate(y []float64) (int, error) {
	p, err := op.LocatePoint(y)
	if err != nil {
		return 0, err
	}
	if cell := op.Grid.CellAt(p); cell >= 0 {
		return cell, nil
	}
	return op.OMP.Locate(y)
}

var _ Localizer = (*OMPPoint)(nil)
