// Package drift turns a stream of live localization queries into a
// staleness signal for the fingerprint database, plus streaming change
// detectors over that signal. It is the detection half of the
// detect -> measure -> update loop: the paper shows how to refresh a
// stale database cheaply, this package decides *when* the database has
// gone stale, from the traffic the deployment is already serving.
//
// The per-query staleness residual is the RMS distance (dB) between the
// mean-centered online RSS vector and its best-matching mean-centered
// fingerprint column. A fresh database explains live queries down to the
// short-term noise floor; as the environment drifts, every column's
// per-link shape goes wrong in the same way for every query, so the
// best-match residual rises by the idiosyncratic (non-common-mode) part
// of the drift. Mean-centering both sides removes the common-mode
// component — transmit-power wander and correlated environmental drift —
// which a localizer is equally insensitive to, so the residual tracks
// exactly the staleness that degrades localization.
//
// Everything in this package is allocation-free in steady state: the
// Residualizer scores a query into caller-provided scratch, and the
// mean-shift detector runs on fixed-ring state allocated at
// construction.
package drift

import (
	"math"

	"iupdater/internal/loc"
)

// Residualizer scores online RSS vectors against one fingerprint
// database version. It runs the best-match search through a loc.Index —
// the one already built for the snapshot's localizer, so monitoring a
// new version costs no extra column copies. ResidualAttributed is
// read-only and safe for concurrent use.
//
// The residual is exact under either search tier: the pruned index
// answers the centered nearest-column query through its bounds with
// the exhaustive scan's value, fewer columns touched, so change
// detectors are calibrated against the true residual.
type Residualizer struct {
	m  int
	ix *loc.Index
}

// NewResidualizerIndex builds the scorer over a prebuilt column index,
// sharing it with the localizers built from the same index.
func NewResidualizerIndex(ix *loc.Index) *Residualizer {
	m, _ := ix.Dims()
	return &Residualizer{m: m, ix: ix}
}

// Links returns the number of links m a query vector must have.
func (r *Residualizer) Links() int { return r.m }

// ResidualAttributed returns the staleness residual for one online
// measurement y — the RMS distance (dB per link) between the centered
// query and the nearest centered fingerprint column — plus per-link
// attribution: perLink[i] receives the absolute shape error
// |yc[i] - col[i]| (dB) between the centered query and that column at
// link i, the per-link terms the RMS residual collapses. scratch and
// perLink must have length >= Links(); scratch is overwritten. No
// allocation is performed.
func (r *Residualizer) ResidualAttributed(y, scratch, perLink []float64) float64 {
	m := r.m
	var mean float64
	for _, v := range y[:m] {
		mean += v
	}
	mean /= float64(m)
	yc := scratch[:m]
	for i, v := range y[:m] {
		yc[i] = v - mean
	}
	bestJ, best := r.ix.NearestCentered(yc)
	col := r.ix.CenteredCol(bestJ)
	for i := range yc {
		perLink[i] = math.Abs(yc[i] - col[i])
	}
	return math.Sqrt(best / float64(m))
}
