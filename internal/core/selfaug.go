package core

import (
	"errors"
	"fmt"
	"math"

	"iupdater/internal/fingerprint"
	"iupdater/internal/mat"
)

// Input bundles the data the Fingerprint Matrix Reconstruction module of
// Fig 10 consumes.
type Input struct {
	// XB is the no-decrease matrix: fresh target-free measurements on the
	// known entries, zero elsewhere (M x N).
	XB *mat.Dense
	// B is the 0/1 index matrix of Eqn 8 (M x N).
	B *mat.Dense
	// XR is the fresh reference matrix of Eqn 13 (M x n); nil disables
	// Constraint 1.
	XR *mat.Dense
	// Z is the inherent correlation matrix from LRR (n x N); nil disables
	// Constraint 1.
	Z *mat.Dense
	// Links is M; PerStrip is K = N/M: the strip structure defining X_D.
	Links, PerStrip int
	// LinkOffsets holds per-link hardware levels o_i used to calibrate
	// the adjacent-link similarity term (footnote 3 of the paper:
	// similarity improves when RF-gain differences are calibrated out).
	// nil derives offsets from the row means of the known XB entries.
	LinkOffsets []float64
}

// TermValues reports the final value of each objective term of Eqn 18.
type TermValues struct {
	Ridge      float64 // λ(||L||²F + ||R||²F)
	Data       float64 // ||B∘(LRᵀ) - XB||²F
	Reference  float64 // ||LRᵀ - XR*Z||²F (Constraint 1)
	Continuity float64 // ||XD*G||²F (Constraint 2)
	Similarity float64 // ||H*XD||²F (Constraint 2)
}

// Total returns the weighted objective (weights already applied).
func (t TermValues) Total() float64 {
	return t.Ridge + t.Data + t.Reference + t.Continuity + t.Similarity
}

// Result is a reconstruction outcome.
type Result struct {
	// X is the reconstructed fingerprint matrix L̂R̂ᵀ.
	X *mat.Dense
	// Objective is the final weighted objective value.
	Objective float64
	// Iterations actually performed.
	Iterations int
	// Terms is the weighted per-term breakdown at termination.
	Terms TermValues
	// Weights records the auto-scaled weights used (data, c1, c2g, c2h).
	Weights [4]float64
}

// Reconstructor runs the self-augmented RSVD method (Eqn 18/Algorithm 1).
// The zero value is not usable; construct with NewReconstructor.
type Reconstructor struct {
	opts options
}

// NewReconstructor builds a Reconstructor with the given options.
func NewReconstructor(opts ...Option) *Reconstructor {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	return &Reconstructor{opts: o}
}

// solverState carries the per-call working set: the problem data, the
// factors, and a Workspace-backed scratch pool owned for the lifetime
// of one Reconstruct call so the ALS sweeps and objective evaluation
// allocate nothing per iteration.
type solverState struct {
	in                     Input
	o                      options
	m, n, r                int
	k                      int        // per strip
	g                      *mat.Dense // K x K continuity matrix
	hth                    *mat.Dense // M x M HᵀH for the similarity term
	ggt                    *mat.Dense // K x K GGᵀ for the continuity term
	h                      *mat.Dense // M x M similarity matrix (hoisted)
	p                      *mat.Dense // XR*Z, or nil
	offsets                []float64
	wData, wC1, wC2G, wC2H float64
	l, rm                  *mat.Dense // L (M x r) and R (N x r)

	// Per-call scratch, borrowed from ws in prepare and returned by
	// close. All of it is reused across sweeps and iterations.
	ws       *mat.Workspace
	ltl, rtr *mat.Dense // r x r factor Grams, hoisted once per sweep
	xhat     *mat.Dense // m x n current LRᵀ (objective evaluation)
	xdBuf    *mat.Dense // m x K X_D block
	calBuf   *mat.Dense // m x K offset-calibrated X_D
	xdgBuf   *mat.Dense // m x K X_D*G
	hxdBuf   *mat.Dense // m x K H*X_D
	xdSnap   *mat.Dense // m x K coupling snapshot for parallel sweeps
	seq      *solveCtx  // sequential solve context
	par      []*solveCtx
}

// coldRestarts is how many random restarts a cold-started Reconstruct
// runs.
const coldRestarts = 3

// Reconstruct solves Eqn 18 and returns the reconstructed fingerprint
// matrix. Cold starts run coldRestarts random restarts and keep the
// solution with the lowest objective; warm starts are deterministic and
// run once.
func (rc *Reconstructor) Reconstruct(in Input) (*Result, error) {
	restarts := coldRestarts
	if rc.opts.warmStart {
		restarts = 1
	}
	var best *Result
	var sharedWeights *[4]float64
	for k := 0; k < restarts; k++ {
		sub := *rc
		sub.opts.seed = 1 + uint64(k)*0x9e37
		res, err := sub.reconstructOnce(in, sharedWeights)
		if err != nil {
			if best != nil {
				continue // keep the successful runs
			}
			if k == restarts-1 {
				return nil, err
			}
			continue
		}
		if sharedWeights == nil {
			// Objectives are only comparable under identical term
			// weights; all restarts reuse the first run's scaling.
			w := res.Weights
			sharedWeights = &w
		}
		if best == nil || res.Objective < best.Objective {
			best = res
		}
	}
	return best, nil
}

func (rc *Reconstructor) reconstructOnce(in Input, fixedWeights *[4]float64) (*Result, error) {
	st, err := rc.prepare(in)
	if err != nil {
		return nil, err
	}
	defer st.close()
	if fixedWeights != nil {
		st.wData = fixedWeights[0]
		st.wC1 = fixedWeights[1]
		st.wC2G = fixedWeights[2]
		st.wC2H = fixedWeights[3]
	}

	prev := math.Inf(1)
	iters := 0
	for t := 0; t < maxIter; t++ {
		st.updateR()
		st.updateL()
		iters = t + 1
		v := st.objective().Total()
		if !math.IsInf(prev, 1) {
			rel := math.Abs(prev-v) / math.Max(v, 1e-12)
			if rel < tol {
				break
			}
		}
		if v <= 0 {
			// Algorithm 1's v_th guard at v_th = 0: an exact fit leaves
			// nothing to refine.
			break
		}
		prev = v
	}

	terms := st.objective()
	x := mat.MulTB(st.l, st.rm)
	if !x.IsFinite() {
		return nil, errors.New("core: reconstruction diverged to non-finite values")
	}
	return &Result{
		X:          x,
		Objective:  terms.Total(),
		Iterations: iters,
		Terms:      terms,
		Weights:    [4]float64{st.wData, st.wC1, st.wC2G, st.wC2H},
	}, nil
}

func (rc *Reconstructor) prepare(in Input) (*solverState, error) {
	if in.XB == nil || in.B == nil {
		return nil, errors.New("core: Input requires XB and B")
	}
	if !in.XB.IsFinite() || !in.B.IsFinite() ||
		(in.XR != nil && !in.XR.IsFinite()) || (in.Z != nil && !in.Z.IsFinite()) {
		return nil, errors.New("core: input contains NaN or Inf values")
	}
	m, n := in.XB.Dims()
	if bm, bn := in.B.Dims(); bm != m || bn != n {
		return nil, fmt.Errorf("core: B is %dx%d, want %dx%d", bm, bn, m, n)
	}
	if in.Links != m {
		return nil, fmt.Errorf("core: Links=%d does not match XB rows %d", in.Links, m)
	}
	if in.PerStrip*in.Links != n {
		return nil, fmt.Errorf("core: Links*PerStrip=%d does not match XB cols %d", in.Links*in.PerStrip, n)
	}
	o := rc.opts
	useC1 := o.useC1 && in.XR != nil && in.Z != nil
	if o.useC1 && !useC1 && (in.XR != nil) != (in.Z != nil) {
		return nil, errors.New("core: Constraint 1 requires both XR and Z")
	}
	st := &solverState{in: in, o: o, m: m, n: n, r: m, k: in.PerStrip}

	if useC1 {
		zr, zn := in.Z.Dims()
		xm, xn := in.XR.Dims()
		if xm != m || xn != zr || zn != n {
			return nil, fmt.Errorf("core: XR (%dx%d) and Z (%dx%d) inconsistent with X (%dx%d)",
				xm, xn, zr, zn, m, n)
		}
		st.p = mat.Mul(in.XR, in.Z)
	}
	if o.useC2 {
		st.g = fingerprint.Continuity(st.k)
		st.ggt = mat.MulTB(st.g, st.g)
		st.h = fingerprint.Similarity(m)
		st.hth = mat.MulTA(st.h, st.h)
		st.offsets = in.LinkOffsets
		if st.offsets == nil {
			st.offsets = rowMeansOverMask(in.XB, in.B)
		}
		if len(st.offsets) != m {
			return nil, fmt.Errorf("core: %d link offsets for %d links", len(st.offsets), m)
		}
		if o.variant == VariantPaper {
			// Algorithm 1 as printed has no hardware calibration
			// (footnote 3 leaves it as an improvement); zero offsets keep
			// the paper variant faithful and the objective consistent.
			st.offsets = make([]float64, m)
		}
	}

	// All validation has passed: borrow the per-call scratch. close()
	// returns it.
	st.ws = mat.GetWorkspace()
	st.xhat = st.ws.Dense(m, n)
	if st.p != nil {
		st.ltl = st.ws.Dense(m, m)
		st.rtr = st.ws.Dense(m, m)
	}
	if o.useC2 {
		st.xdBuf = st.ws.Dense(m, st.k)
		st.calBuf = st.ws.Dense(m, st.k)
		st.xdgBuf = st.ws.Dense(m, st.k)
		st.hxdBuf = st.ws.Dense(m, st.k)
	}
	// Any non-default concurrency setting — even one that resolves to a
	// single worker on this machine — routes through the sharded sweep,
	// so a given configuration produces bit-identical results on every
	// host regardless of its core count.
	if o.concurrency != 1 {
		st.par = make([]*solveCtx, o.workers())
		for w := range st.par {
			st.par[w] = st.newSolveCtx()
		}
		if o.useC2 && o.variant == VariantGaussSeidel {
			st.xdSnap = st.ws.Dense(m, st.k)
		}
	} else {
		st.seq = st.newSolveCtx()
	}

	st.initFactors()
	if !o.warmStart {
		// With a random L0 and zero R the objective terms are
		// meaningless; run one data-only sweep before equalizing the term
		// magnitudes.
		st.wData = 1
		st.updateR()
	}
	st.scaleWeights()
	return st, nil
}

// rowMeansOverMask estimates per-link hardware levels from the known
// (no-decrease) entries: those read the link's unobstructed level.
func rowMeansOverMask(xb, b *mat.Dense) []float64 {
	m, n := xb.Dims()
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		var sum, cnt float64
		for j := 0; j < n; j++ {
			if b.At(i, j) == 1 {
				sum += xb.At(i, j)
				cnt++
			}
		}
		if cnt > 0 {
			out[i] = sum / cnt
		}
	}
	return out
}

// initFactors warm-starts L and R. The completion seed fills unknown
// entries with the Constraint-1 prediction when available (else the
// link's known-entry mean) and factorizes the fill by truncated SVD. A
// small seeded perturbation breaks symmetry, standing in for Algorithm
// 1's random L0 while keeping runs reproducible.
func (st *solverState) initFactors() {
	if !st.o.warmStart {
		// Algorithm 1 line 1: L̂ <- L0, randomly initialized. R starts at
		// zero; the first updateR sweep computes it from L0.
		st.l = mat.New(st.m, st.r)
		for i := 0; i < st.m; i++ {
			for c := 0; c < st.r; c++ {
				st.l.Set(i, c, hashSignal(st.o.seed, uint64(i*st.r+c)))
			}
		}
		st.rm = mat.New(st.n, st.r)
		return
	}
	fill := st.in.XB.Clone()
	means := rowMeansOverMask(st.in.XB, st.in.B)
	for i := 0; i < st.m; i++ {
		for j := 0; j < st.n; j++ {
			if st.in.B.At(i, j) != 1 {
				if st.p != nil {
					fill.Set(i, j, st.p.At(i, j))
				} else {
					fill.Set(i, j, means[i])
				}
			}
		}
	}
	svd := mat.FactorSVD(fill)
	l := mat.New(st.m, st.r)
	rm := mat.New(st.n, st.r)
	for c := 0; c < st.r && c < len(svd.S); c++ {
		s := math.Sqrt(svd.S[c])
		for i := 0; i < st.m; i++ {
			l.Set(i, c, svd.U.At(i, c)*s)
		}
		for j := 0; j < st.n; j++ {
			rm.Set(j, c, svd.V.At(j, c)*s)
		}
	}
	// Symmetry-breaking perturbation (deterministic in the seed).
	scale := 0.01 * (1 + mat.FrobeniusNorm(l)/float64(st.m*st.r))
	for i := 0; i < st.m; i++ {
		for c := 0; c < st.r; c++ {
			l.Add(i, c, scale*hashSignal(st.o.seed, uint64(i*st.r+c)))
		}
	}
	st.l, st.rm = l, rm
}

// hashSignal returns a deterministic value in [-1, 1).
func hashSignal(seed, idx uint64) float64 {
	x := seed ^ (idx+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/(1<<52) - 1
}

// scaleWeights implements the §IV-E magnitude equalization: each
// constraint term is scaled so its initial value matches the data term.
func (st *solverState) scaleWeights() {
	st.wData = 1
	st.wC1, st.wC2G, st.wC2H = 0, 0, 0
	raw := st.rawTerms()
	base := math.Max(raw.Data, 1e-9)
	if st.p != nil {
		st.wC1 = 1
		if st.o.autoScale && raw.Reference > 1e-12 {
			st.wC1 = math.Min(base/raw.Reference, 1e3)
		}
	}
	if st.o.useC2 {
		st.wC2G, st.wC2H = 1, 1
		if st.o.autoScale {
			if raw.Continuity > 1e-12 {
				st.wC2G = math.Min(base/raw.Continuity, 1e3)
			}
			if raw.Similarity > 1e-12 {
				st.wC2H = math.Min(base/raw.Similarity, 1e3)
			}
		}
		if st.o.variant == VariantPaper {
			// With the couplings zeroed (C4 = C5 = O), the Q4/Q5 terms
			// reduce to shrinkage of the raw dBm values toward zero: at
			// data-term magnitude the bias wrecks the reconstruction
			// (~20 dB). The printed algorithm is only stable when these
			// terms stay two orders of magnitude below the data term —
			// measured in the solver-variant ablation benchmark.
			st.wC2G *= 0.01
			st.wC2H *= 0.01
		}
	}
}

// close returns the per-call scratch to the workspace and the
// workspace to the process pool. The state must not be used afterwards.
func (st *solverState) close() {
	ws := st.ws
	if ws == nil {
		return
	}
	for _, m := range []*mat.Dense{st.xhat, st.ltl, st.rtr, st.xdBuf, st.calBuf, st.xdgBuf, st.hxdBuf, st.xdSnap} {
		if m != nil {
			ws.Free(m)
		}
	}
	if st.seq != nil {
		st.seq.free(ws)
	}
	for _, cx := range st.par {
		cx.free(ws)
	}
	st.ws = nil
	ws.Release()
}

// fillXD extracts the largely-decrease matrix from the current iterate
// into dst: XD(i, u) = (LRᵀ)(i, i*K+u).
func (st *solverState) fillXD(dst *mat.Dense) {
	d := dst.RawData()
	for i := 0; i < st.m; i++ {
		for u := 0; u < st.k; u++ {
			d[i*st.k+u] = st.entry(i, i*st.k+u)
		}
	}
}

// entry returns (LRᵀ)(i, j) from the current factors.
func (st *solverState) entry(i, j int) float64 {
	lrow := st.l.RawData()[i*st.r : (i+1)*st.r]
	rrow := st.rm.RawData()[j*st.r : (j+1)*st.r]
	var s float64
	for c, lv := range lrow {
		s += lv * rrow[c]
	}
	return s
}

// rawTerms evaluates the unweighted objective terms at the current
// iterate, entirely in per-call scratch.
func (st *solverState) rawTerms() TermValues {
	var tv TermValues
	tv.Ridge = lambda * (mat.FrobeniusNormSq(st.l) + mat.FrobeniusNormSq(st.rm))
	mat.MulTBInto(st.xhat, st.l, st.rm)
	xh := st.xhat.RawData()
	bd := st.in.B.RawData()
	xbd := st.in.XB.RawData()
	var data float64
	for i, v := range xh {
		d := bd[i]*v - xbd[i]
		data += d * d
	}
	tv.Data = data
	if st.p != nil {
		pd := st.p.RawData()
		var ref float64
		for i, v := range xh {
			d := v - pd[i]
			ref += d * d
		}
		tv.Reference = ref
	}
	if st.o.useC2 {
		st.fillXD(st.xdBuf)
		tv.Continuity = mat.FrobeniusNormSq(mat.MulInto(st.xdgBuf, st.xdBuf, st.g))
		// Similarity on offset-calibrated rows (footnote 3). H is
		// banded, so the masked multiply kernel applies.
		xd := st.xdBuf.RawData()
		cal := st.calBuf.RawData()
		for i := 0; i < st.m; i++ {
			off := st.offsets[i]
			for u := 0; u < st.k; u++ {
				cal[i*st.k+u] = xd[i*st.k+u] - off
			}
		}
		tv.Similarity = mat.FrobeniusNormSq(mat.MulSparseInto(st.hxdBuf, st.h, st.calBuf))
	}
	return tv
}

// objective evaluates the weighted objective of Eqn 18.
func (st *solverState) objective() TermValues {
	tv := st.rawTerms()
	tv.Data *= st.wData
	tv.Reference *= st.wC1
	tv.Continuity *= st.wC2G
	tv.Similarity *= st.wC2H
	return tv
}
