package rf

import (
	"math"

	"iupdater/internal/geom"
)

// NoTarget is the location index passed to Sample when no target is
// present in the monitoring area.
const NoTarget = -1

// Channel is the deterministic radio model for one deployment: M parallel
// links over a strip-major grid. It precomputes the static quantities
// (per-link multipath, per-cell target effects) and exposes sampling of
// RSS readings at arbitrary times.
//
// A Channel is deterministic given (grid, params, seed): two channels
// built with the same inputs produce identical samples. Evaluation order
// is part of that contract: every survey path (SampleColumnMean) must
// equal a loop over Sample bit for bit, with each reading built from the
// same operands grouped the same way and the readings summed in the same
// order, so batching the work differently never moves a survey matrix.
// A Channel is not safe for concurrent use: the drift chains extend
// lazily and SampleColumnMean reuses per-link scratch.
type Channel struct {
	grid   geom.Grid
	params Params
	seed   uint64

	links     []geom.Link
	baseline  []float64   // per-link no-target RSS at drift=0, noise=0
	effects   [][]float64 // [link][cell] deterministic+static target loss (dB, positive)
	affected  [][]bool    // [link][cell] whether entry needs the target present
	driftProc *driftModel
	terms     []columnTerm // SampleColumnMean's per-link scratch
}

// columnTerm holds the parts of one link's readings that are fixed for
// the surveyed cell: CleanRSS, and TargetDrift's affected flag and
// coupling weight.
type columnTerm struct {
	clean    float64
	coupling float64
	affected bool
}

// NewChannel builds the radio model for the given grid.
func NewChannel(grid geom.Grid, params Params, seed uint64) *Channel {
	m := grid.Links
	n := grid.NumCells()
	c := &Channel{
		grid:      grid,
		params:    params,
		seed:      seed,
		links:     make([]geom.Link, m),
		baseline:  make([]float64, m),
		effects:   make([][]float64, m),
		affected:  make([][]bool, m),
		driftProc: newDriftModel(seed, m, params),
		terms:     make([]columnTerm, m),
	}
	// The odd unit sits at an array edge so it degrades one link pair,
	// matching the single heavy tail of the paper's Fig 9.
	oddLink := 0
	if hashUniform(seed, 0x0dd, 0) < 0.5 {
		oddLink = m - 1
	}
	oddSign := 1.0
	if hashUniform(seed, 0x0dd, 1) < 0.5 {
		oddSign = -1
	}
	for i := 0; i < m; i++ {
		c.links[i] = grid.LinkLine(i)
		d := c.links[i].Length()
		pl := params.RefLossDB + 10*params.PathLossExp*math.Log10(math.Max(d, 1))
		mp := params.MultipathSigmaDB * hashNormal(seed, 0xba5e+uint64(i), 0)
		if i == oddLink {
			mp += oddSign * params.OddLinkOffsetDB
		}
		c.baseline[i] = params.TXPowerDBm - pl + mp

		c.effects[i] = make([]float64, n)
		c.affected[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			loss, affected := c.effectAt(i, grid.Center(j))
			c.effects[i][j] = loss
			c.affected[i][j] = affected
		}
	}
	return c
}

// Grid returns the deployment grid.
func (c *Channel) Grid() geom.Grid { return c.grid }

// NumLinks returns M.
func (c *Channel) NumLinks() int { return len(c.links) }

// NumCells returns N.
func (c *Channel) NumCells() int { return c.grid.NumCells() }

// Affected reports whether link i requires the target to be present to
// measure the fingerprint entry for cell j — i.e. whether the entry is
// outside the "no RSS decrease" class of Fig 4.
func (c *Channel) Affected(i, j int) bool { return c.affected[i][j] }

// CleanRSS returns the drift-free, noise-free RSS of link i with a target
// at cell j (or NoTarget).
func (c *Channel) CleanRSS(i, j int) float64 {
	rss := c.baseline[i]
	if j != NoTarget {
		rss -= c.effects[i][j]
	}
	return rss
}

// Drift returns the long-term per-link drift of link i at time t
// (seconds).
func (c *Channel) Drift(i int, t float64) float64 {
	return c.driftProc.at(i, t)
}

// TargetDrift returns the slow spatial drift of link i's target effect
// for a target at cell j at time t. It is zero for unaffected entries, so
// the no-decrease mask stays valid over time.
func (c *Channel) TargetDrift(i, j int, t float64) float64 {
	if j == NoTarget || !c.affected[i][j] {
		return 0
	}
	return c.coupling(i, j) * c.driftProc.spatialAt(i, c.stripPos(j), t)
}

// coupling is the weight of the spatial drift in link i's target effect
// at cell j: strong effects couple fully, weak ones proportionally.
func (c *Channel) coupling(i, j int) float64 {
	return math.Min(1, c.effects[i][j]/3)
}

// stripPos returns cell j's normalized along-link position in (0, 1).
func (c *Channel) stripPos(j int) float64 {
	return (float64(c.grid.PosInStrip(j)) + 0.5) / float64(c.grid.PerStrip)
}

// TrueRSS returns the noise-free RSS of link i at time t with a target at
// cell j (or NoTarget): baseline, per-link drift, target effect and
// target-effect drift — everything except short-term noise and
// quantization. This is the quantity a perfect survey would record.
func (c *Channel) TrueRSS(i, j int, t float64) float64 {
	return c.CleanRSS(i, j) + c.driftProc.at(i, t) - c.TargetDrift(i, j, t)
}

// Sample returns one RSS reading of link i at time t (seconds since the
// original survey) with a target at cell j, or NoTarget for none. The
// reading includes drift, correlated common-mode noise, interference
// bursts, per-link white noise and quantization. Surveys are conducted in
// deliberately quiet conditions, so the ambient-crowd process only
// affects the online path (SampleAt).
func (c *Channel) Sample(i, j int, t float64) float64 {
	return c.reading(i, c.TrueRSS(i, j, t), c.commonNoise(t), int64(t/0.5))
}

// reading adds the short-term noise of one reading time to link i's
// noise-free RSS and quantizes the sum: the common-mode value all links
// share, then the link's white noise at beacon index idx.
func (c *Channel) reading(i int, rss, common float64, idx int64) float64 {
	rss += common
	rss += c.params.NoiseIdioSigmaDB * hashNormal(c.seed, 0x1d10+uint64(i), idx)
	return c.quantize(rss)
}

// SampleColumnMean writes to dst[i], for every link i, the average of n
// consecutive readings spaced 0.5 s apart starting at time t with a
// target at cell j (or NoTarget) — the paper's multi-sample averaging
// during fingerprint collection (50 samples traditional, 5 for
// iUpdater). dst must hold NumLinks values. n <= 0 takes one reading.
//
// Each dst[i] equals, bit for bit, the sum of Sample(i, j, t+0.5*k) over
// k = 0..n-1 in that order, divided by n. The loop runs reading time
// outer and link inner, so what all links share at one reading time (the
// common-mode noise, the global drift, the mixed white-noise index) is
// computed once per time, and what is fixed for a link and cell once per
// column. The common-mode noise also reuses its random draws across
// reading times (see commonMemo).
func (c *Channel) SampleColumnMean(j int, t float64, n int, dst []float64) {
	if n <= 0 {
		n = 1
	}
	dst = dst[:len(c.links)]
	terms := c.terms
	var s1, s2 float64
	if j != NoTarget {
		s1, s2 = harmonics(c.stripPos(j))
	}
	for i := range dst {
		dst[i] = 0
		terms[i] = columnTerm{clean: c.CleanRSS(i, j)}
		if j != NoTarget && c.affected[i][j] {
			terms[i].coupling = c.coupling(i, j)
			terms[i].affected = true
		}
	}
	var memo commonMemo
	for k := 0; k < n; k++ {
		tk := t + 0.5*float64(k)
		th := tk / 3600
		g := c.driftProc.global.at(th)
		common := memo.commonNoise(c, tk)
		mixed := splitmix64(uint64(int64(tk / 0.5)))
		for i := range dst {
			term := &terms[i]
			var td float64 // TargetDrift
			if term.affected {
				td = term.coupling * c.driftProc.spatialHarmonics(i, th, s1, s2)
			}
			// reading, with the white-noise index mixed once per time.
			rss := term.clean + c.driftProc.linkAt(i, th, g) - td
			rss += common
			rss += c.params.NoiseIdioSigmaDB * hashNormalMixed(c.seed, 0x1d10+uint64(i), mixed)
			dst[i] += c.quantize(rss)
		}
	}
	for i := range dst {
		dst[i] /= float64(n)
	}
}

// effectAt evaluates the full static target effect of a target at point
// p on link i: the deterministic geometry plus the spatially-correlated
// multipath perturbation field. The field varies continuously with p
// (correlation length Params.PerturbCorrLenM), so a person standing a
// step away from a surveyed location produces a nearby signature — the
// physical basis of the paper's Observation 2.
func (c *Channel) effectAt(i int, p geom.Point) (loss float64, affected bool) {
	tg := computeTargetGeometry(c.links[i], p, c.params)
	if !tg.affected {
		return 0, false
	}
	loss = tg.lossDB
	scale := math.Min(1, loss/3)
	corr := c.params.PerturbCorrLenM
	if corr <= 0 {
		corr = 1
	}
	loss += c.params.TargetPerturbSigmaDB * scale *
		valueNoise(c.seed, 0x7a96e7+uint64(i)*0x9e37, p.X/corr)
	if loss < 0 {
		loss = 0
	}
	return loss, true
}

// TargetEffectAt returns the static RSS decrease (dB, >= 0) on link i
// from a target at an arbitrary point p, not necessarily a cell center.
func (c *Channel) TargetEffectAt(i int, p geom.Point) float64 {
	loss, _ := c.effectAt(i, p)
	return loss
}

// SampleAt returns one RSS reading of link i at time t with a target at
// the arbitrary point p (the online measurement of Eqn 25).
func (c *Channel) SampleAt(i int, p geom.Point, t float64) float64 {
	eff := c.TargetEffectAt(i, p)
	rss := c.baseline[i] - eff
	rss += c.driftProc.at(i, t)
	if eff > 0 {
		x := p.X / c.grid.Width
		if x < 0 {
			x = 0
		} else if x > 1 {
			x = 1
		}
		rss -= math.Min(1, eff/3) * c.driftProc.spatialAt(i, x, t)
	}
	rss += c.commonNoise(t)
	rss += c.ambientNoise(i, t)
	rss += c.params.NoiseIdioSigmaDB * hashNormal(c.seed, 0x1d10+uint64(i), int64(t/0.5))
	return c.quantize(rss)
}

// SampleAtMulti returns one RSS reading of link i with several targets
// present simultaneously. Each target's attenuation superposes in dB —
// the standard independent-obstruction approximation for links whose
// dominant path is blocked at distinct points.
func (c *Channel) SampleAtMulti(i int, pts []geom.Point, t float64) float64 {
	rss := c.baseline[i]
	rss += c.driftProc.at(i, t)
	for _, p := range pts {
		eff := c.TargetEffectAt(i, p)
		if eff <= 0 {
			continue
		}
		rss -= eff
		x := p.X / c.grid.Width
		if x < 0 {
			x = 0
		} else if x > 1 {
			x = 1
		}
		rss -= math.Min(1, eff/3) * c.driftProc.spatialAt(i, x, t)
	}
	rss += c.commonNoise(t)
	rss += c.ambientNoise(i, t)
	rss += c.params.NoiseIdioSigmaDB * hashNormal(c.seed, 0x1d10+uint64(i), int64(t/0.5))
	return c.quantize(rss)
}

// ambientNoise models unrelated people moving through the live testbed:
// in some time windows one random link takes a transient hit.
func (c *Channel) ambientNoise(i int, t float64) float64 {
	if c.params.AmbientProb <= 0 {
		return 0
	}
	w := int64(math.Floor(t / c.params.AmbientWindowS))
	if hashUniform(c.seed, 0xa3b1e27, w) >= c.params.AmbientProb {
		return 0
	}
	hit := int(hashUniform(c.seed, 0x11221, w) * float64(len(c.links)))
	if hit != i {
		return 0
	}
	depth := c.params.AmbientDepthDB * hashUniform(c.seed, 0xdee9, w)
	u := t/c.params.AmbientWindowS - float64(w)
	return -depth * math.Sin(math.Pi*u) * math.Sin(math.Pi*u)
}

// commonNoise is the common-mode short-term variation shared by all
// links: smooth correlated wander plus occasional interference bursts.
func (c *Channel) commonNoise(t float64) float64 {
	v := c.params.NoiseCommonSigmaDB * valueNoise(c.seed, 0xc0113c7, t/c.params.NoiseCommonScaleS)

	// Interference bursts: some burst windows carry extra attenuation.
	w := int64(math.Floor(t / c.params.BurstWindowS))
	if hashUniform(c.seed, 0xb13575, w) < c.params.BurstProb {
		depth := c.params.BurstDepthDB * hashUniform(c.seed, 0xd3b7, w)
		// Smooth on/off envelope inside the window.
		u := t/c.params.BurstWindowS - float64(w)
		v -= depth * math.Sin(math.Pi*u) * math.Sin(math.Pi*u)
	}
	return v
}

// commonMemo holds the random draws commonNoise makes that consecutive
// reading times of one survey column share: the value-noise lattice pair
// around the current lattice index (the noise scale spans several 0.5 s
// readings) and the current burst window's two draws.
type commonMemo struct {
	k, w       int64 // lattice index of a (b is at k+1); burst window
	a, b       float64
	burst      bool
	depth      float64
	kSet, wSet bool
}

// commonNoise equals c.commonNoise(t) bit for bit — the same operands,
// grouped the same way — but draws each lattice value and burst window
// once for a run of non-decreasing times.
func (m *commonMemo) commonNoise(c *Channel, t float64) float64 {
	const stream = 0xc0113c7 // commonNoise's value-noise stream
	x := t / c.params.NoiseCommonScaleS
	k := int64(math.Floor(x))
	if !m.kSet || k != m.k {
		if m.kSet && k == m.k+1 {
			m.a = m.b
		} else {
			m.a = hashNormal(c.seed, stream, k)
		}
		m.b = hashNormal(c.seed, stream, k+1)
		m.k, m.kSet = k, true
	}
	u := x - float64(k)
	ws := u * u * (3 - 2*u) // valueNoise's smoothstep and lerp
	v := c.params.NoiseCommonSigmaDB * ((m.a*(1-ws) + m.b*ws) * varNormValueNoise)

	w := int64(math.Floor(t / c.params.BurstWindowS))
	if !m.wSet || w != m.w {
		m.burst = hashUniform(c.seed, 0xb13575, w) < c.params.BurstProb
		if m.burst {
			m.depth = c.params.BurstDepthDB * hashUniform(c.seed, 0xd3b7, w)
		}
		m.w, m.wSet = w, true
	}
	if m.burst {
		u := t/c.params.BurstWindowS - float64(w)
		v -= m.depth * math.Sin(math.Pi*u) * math.Sin(math.Pi*u)
	}
	return v
}

func (c *Channel) quantize(v float64) float64 {
	if c.params.QuantStepDB <= 0 {
		return v
	}
	return math.Round(v/c.params.QuantStepDB) * c.params.QuantStepDB
}
