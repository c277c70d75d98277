package loc

import (
	"math"
	"sync"
	"sync/atomic"

	"iupdater/internal/mat"
)

// SearchMode selects how an Index answers candidate-column searches.
type SearchMode int

const (
	// SearchPruned (the default) returns exactly the same answers as the
	// exhaustive scan — including on ties, which resolve to the lowest
	// column index in both — but skips whole shards and individual
	// columns whose triangle-inequality / Cauchy-Schwarz bounds prove
	// they cannot beat the current best. Fewer columns touched, bit-
	// identical results.
	SearchPruned SearchMode = iota
	// SearchExact is the bit-exact exhaustive reference: every column is
	// evaluated in ascending index order with no bounds machinery. It
	// exists so the pruned tier always has a ground truth to be checked
	// against (and for callers that want the paper's original O(M*N)
	// scan back).
	SearchExact
)

// String names the search tier ("pruned", "exact") for summaries and
// metric labels.
func (m SearchMode) String() string {
	if m == SearchExact {
		return "exact"
	}
	return "pruned"
}

// IndexConfig tunes an Index.
type IndexConfig struct {
	// Mode selects the search tier; the zero value is SearchPruned.
	Mode SearchMode
	// BlockSize is the number of grid cells per shard; <= 0 selects
	// ~sqrt(N) clipped to strip boundaries, which balances the coarse
	// routing scan against the fine per-column scan.
	BlockSize int
}

// IndexStats are cumulative counters of the search work an Index has
// performed, read with Index.Stats. ColumnEvals is the number of full
// column evaluations (one length-M inner product or distance each) —
// the quantity the pruned tier exists to reduce; the
// exhaustive reference costs N of them per candidate search.
type IndexStats struct {
	// Queries is the number of candidate searches answered.
	Queries uint64
	// ColumnEvals is the number of full column distance/correlation
	// evaluations performed.
	ColumnEvals uint64
	// ShardEvals is the number of shard routing evaluations (one
	// centroid distance/correlation each) performed.
	ShardEvals uint64
}

// SearchInfo accumulates the per-query cost of a single candidate
// search (or pursuit, which runs one search per round). Unlike
// IndexStats — which aggregates across every concurrent query — a
// SearchInfo passed down a query path receives exactly that query's
// counts, so request-scoped traces can attribute cost causally. All
// counters accumulate; zero the struct between queries. A nil
// *SearchInfo is accepted everywhere and recorded nowhere.
type SearchInfo struct {
	// ColumnEvals counts full column correlation evaluations.
	ColumnEvals uint64
	// ShardEvals counts shard routing (bound) evaluations.
	ShardEvals uint64
	// ShardsVisited counts shards actually scanned after pruning.
	ShardsVisited int
	// Rounds counts pursuit rounds (greedy column selections).
	Rounds int
}

// space is one geometric view of the fingerprint columns: the raw
// columns (nearest-column matching), the mean-centered columns
// (the drift residual), or the centered-and-normalized unit columns
// (OMP correlation). Each carries the per-shard centroid/radius bounds
// and per-column norms for its own metric.
type space struct {
	data  []float64 // column-major m*n
	cents []float64 // shard centroids, m values per shard
	rads  []float64 // shard radii: max distance from centroid to a member
	norms []float64 // per-column Euclidean norms in this space
}

// shardRange is one shard's contiguous column range [lo, hi). Shards
// never cross strip boundaries, so a shard is a spatially contiguous
// run of cells along one link's strip.
type shardRange struct{ lo, hi int }

// Index is a snapshot-time search accelerator over one immutable
// fingerprint matrix. It is built once per published snapshot (on the
// write path) and answers the read path's candidate-column searches:
// nearest raw column (NearestColumn), nearest centered column (the
// drift residual) and best unit-column correlation (OMP pursuit).
//
// All storage is column-major — the exhaustive reference scan alone is
// already faster than striding a row-major matrix — and all query state
// lives in a pooled per-query scratch, so searches are allocation-free
// in steady state and safe for unlimited concurrent use.
type Index struct {
	m, n int
	cfg  IndexConfig

	raw  space // raw columns
	cen  space // mean-centered columns
	unit space // mean-centered, unit-normalized columns

	shards []shardRange

	queries    atomic.Uint64
	colEvals   atomic.Uint64
	shardEvals atomic.Uint64
}

// NewIndex builds an index over the columns of x. stripLen is the
// number of cells per grid strip (geom.Grid.PerStrip) so shards align
// with the spatial layout; <= 0 treats the whole column range as one
// strip.
func NewIndex(x *mat.Dense, stripLen int, cfg IndexConfig) *Index {
	m, n := x.Dims()
	return NewIndexCols(m, n, func(j int, dst []float64) {
		for i := 0; i < m; i++ {
			dst[i] = x.At(i, j)
		}
	}, stripLen, cfg)
}

// NewIndexCols builds an index over n columns of length m read through
// col, which must fill dst (length m) with column j. It avoids
// materializing an intermediate matrix when the caller already stores
// columns contiguously.
func NewIndexCols(m, n int, col func(j int, dst []float64), stripLen int, cfg IndexConfig) *Index {
	if m <= 0 || n <= 0 {
		panic("loc: NewIndex requires positive dimensions")
	}
	ix := &Index{m: m, n: n, cfg: cfg}
	ix.raw.data = make([]float64, m*n)
	ix.cen.data = make([]float64, m*n)
	ix.unit.data = make([]float64, m*n)
	ix.raw.norms = make([]float64, n)
	ix.cen.norms = make([]float64, n)
	ix.unit.norms = make([]float64, n)
	for j := 0; j < n; j++ {
		rawj := ix.raw.data[j*m : (j+1)*m]
		col(j, rawj)
		var mean float64
		for _, v := range rawj {
			mean += v
		}
		mean /= float64(m)
		cenj := ix.cen.data[j*m : (j+1)*m]
		unitj := ix.unit.data[j*m : (j+1)*m]
		var rawSq, cenSq float64
		for i, v := range rawj {
			rawSq += v * v
			c := v - mean
			cenj[i] = c
			unitj[i] = c
			cenSq += c * c
		}
		ix.raw.norms[j] = math.Sqrt(rawSq)
		norm := math.Sqrt(cenSq)
		ix.cen.norms[j] = norm
		if norm > 0 {
			for i := range unitj {
				unitj[i] /= norm
			}
			ix.unit.norms[j] = 1
		}
	}
	ix.buildShards(stripLen)
	return ix
}

// buildShards splits the columns into contiguous per-strip blocks and
// precomputes each space's centroid and covering radius per shard.
func (ix *Index) buildShards(stripLen int) {
	if stripLen <= 0 || stripLen > ix.n {
		stripLen = ix.n
	}
	block := ix.cfg.BlockSize
	if block <= 0 {
		block = int(math.Round(math.Sqrt(float64(ix.n))))
	}
	if block < 1 {
		block = 1
	}
	if block > stripLen {
		block = stripLen
	}
	ix.cfg.BlockSize = block
	for lo := 0; lo < ix.n; {
		stripEnd := lo - lo%stripLen + stripLen
		if stripEnd > ix.n {
			stripEnd = ix.n
		}
		hi := lo + block
		if hi > stripEnd {
			hi = stripEnd
		}
		ix.shards = append(ix.shards, shardRange{lo: lo, hi: hi})
		lo = hi
	}
	for _, sp := range []*space{&ix.raw, &ix.cen, &ix.unit} {
		sp.cents = make([]float64, len(ix.shards)*ix.m)
		sp.rads = make([]float64, len(ix.shards))
		for s, sh := range ix.shards {
			cent := sp.cents[s*ix.m : (s+1)*ix.m]
			for j := sh.lo; j < sh.hi; j++ {
				colj := sp.data[j*ix.m : (j+1)*ix.m]
				for i, v := range colj {
					cent[i] += v
				}
			}
			inv := 1 / float64(sh.hi-sh.lo)
			for i := range cent {
				cent[i] *= inv
			}
			var rad float64
			for j := sh.lo; j < sh.hi; j++ {
				colj := sp.data[j*ix.m : (j+1)*ix.m]
				var d float64
				for i, v := range colj {
					diff := v - cent[i]
					d += diff * diff
				}
				if d > rad {
					rad = d
				}
			}
			sp.rads[s] = math.Sqrt(rad)
		}
	}
}

// Dims returns the number of links m and locations n.
func (ix *Index) Dims() (m, n int) { return ix.m, ix.n }

// Mode returns the configured search tier.
func (ix *Index) Mode() SearchMode { return ix.cfg.Mode }

// Stats returns the cumulative search counters. Safe for concurrent
// use; counters are updated once per query, not per column.
func (ix *Index) Stats() IndexStats {
	return IndexStats{
		Queries:     ix.queries.Load(),
		ColumnEvals: ix.colEvals.Load(),
		ShardEvals:  ix.shardEvals.Load(),
	}
}

// rawAt returns the raw fingerprint value of link i at location j.
func (ix *Index) rawAt(i, j int) float64 { return ix.raw.data[j*ix.m+i] }

// rawCol returns location j's raw fingerprint column (a view).
func (ix *Index) rawCol(j int) []float64 { return ix.raw.data[j*ix.m : (j+1)*ix.m] }

// unitCol returns location j's centered, normalized column (a view).
func (ix *Index) unitCol(j int) []float64 { return ix.unit.data[j*ix.m : (j+1)*ix.m] }

// CenteredCol returns location j's mean-centered column (a read-only
// view). Drift attribution reads the best-match column through it to
// break the residual back into per-link errors.
func (ix *Index) CenteredCol(j int) []float64 { return ix.cen.data[j*ix.m : (j+1)*ix.m] }

// colNorms returns the per-column centered norms (a view; do not
// modify — copy before masking).
func (ix *Index) colNorms() []float64 { return ix.cen.norms }

// queryScratch is the pooled per-query working state: shard routing
// order and keys, and the OMP pursuit buffers. All
// slices grow to the index's dimensions on first use and are then
// reused, so steady-state queries perform zero allocations.
//
// One pool serves every index. None of the buffers grows with the
// column count, so sharing costs nothing, while a pool inside each
// Index would pin the whole index: the runtime keeps each pool used
// since the last GC reachable until the GC after next, so a fleet
// parking and rehydrating sites would hold each dropped index that
// long.
type queryScratch struct {
	order []int     // shard visit order
	key   []float64 // shard routing key, parallel to order

	yc     []float64 // centered query
	target []float64 // centered query preserved across pursuit rounds
	resid  []float64 // pursuit residual
	qr     []float64 // m x k column-major Householder working copy
	v      []float64 // Householder reflector scratch
	rhs    []float64 // projected right-hand side
	sel    []int     // selected columns
	w      []float64 // least-squares weights
}

var scratchPool sync.Pool // *queryScratch

func (ix *Index) getScratch() *queryScratch {
	s, _ := scratchPool.Get().(*queryScratch)
	if s == nil {
		s = new(queryScratch)
	}
	return s
}

func (ix *Index) putScratch(s *queryScratch) { scratchPool.Put(s) }

// growF returns v with length n, reusing its backing array when it
// fits.
func growF(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// growI is growF for int slices.
func growI(v []int, n int) []int {
	if cap(v) < n {
		return make([]int, n)
	}
	return v[:n]
}

// pruneSlack and corrSlack back every pruning comparison off by a tiny
// relative margin: the bounds hold exactly over the reals, and the
// slack absorbs the few-ulp rounding of their float evaluation so it
// can never disqualify the true winner. The cost is a vanishing number
// of extra column evaluations near the boundary.
const (
	pruneSlack = 1 - 1e-9 // deflates distance lower bounds
	corrSlack  = 1 + 1e-9 // inflates correlation upper bounds
)

// distSq returns the squared Euclidean distance between a and b.
func distSq(a, b []float64) float64 {
	var d float64
	for i, v := range a {
		diff := v - b[i]
		d += diff * diff
	}
	return d
}

// routeByDistance fills s.order with shard indices sorted by ascending
// lower-bound distance max(0, d(q, centroid) - radius) and s.key with
// that bound, and returns the number of shards. Counted as one shard
// evaluation per shard.
func (ix *Index) routeByDistance(sp *space, q []float64, s *queryScratch) int {
	S := len(ix.shards)
	s.order = growI(s.order, S)
	s.key = growF(s.key, S)
	for si := 0; si < S; si++ {
		cent := sp.cents[si*ix.m : (si+1)*ix.m]
		lb := math.Sqrt(distSq(q, cent)) - sp.rads[si]
		if lb < 0 {
			lb = 0
		}
		s.order[si] = si
		s.key[si] = lb
	}
	sortByKey(s.order, s.key, false)
	return S
}

// sortByKey insertion-sorts order so that key[order[i]] is ascending
// (desc=false) or descending (desc=true). Shard counts are small (about
// sqrt(N)), where insertion sort beats sort.Slice without allocating.
func sortByKey(order []int, key []float64, desc bool) {
	for i := 1; i < len(order); i++ {
		oi := order[i]
		ki := key[oi]
		j := i - 1
		for j >= 0 {
			kj := key[order[j]]
			if desc {
				if kj >= ki {
					break
				}
			} else {
				if kj <= ki {
					break
				}
			}
			order[j+1] = order[j]
			j--
		}
		order[j+1] = oi
	}
}

// nearest returns the column of sp minimizing the squared Euclidean
// distance to q, with ties resolved to the lowest column index, plus
// that squared distance. Both tiers return the same answer.
func (ix *Index) nearest(sp *space, q []float64) (int, float64) {
	best, bestJ := math.Inf(1), -1
	var ce, se uint64
	if ix.cfg.Mode == SearchExact || len(ix.shards) <= 1 {
		for j := 0; j < ix.n; j++ {
			d := distSq(q, sp.data[j*ix.m:(j+1)*ix.m])
			ce++
			if d < best {
				best, bestJ = d, j
			}
		}
	} else {
		s := ix.getScratch()
		var qn float64
		for _, v := range q {
			qn += v * v
		}
		qn = math.Sqrt(qn)
		S := ix.routeByDistance(sp, q, s)
		se = uint64(S)
		for _, si := range s.order {
			lb := s.key[si]
			if lb*lb*pruneSlack > best {
				break // shards are in ascending bound order: all pruned
			}
			sh := ix.shards[si]
			for j := sh.lo; j < sh.hi; j++ {
				// Cheap per-column norm bound: d >= (|x_j| - |q|)^2.
				nb := sp.norms[j] - qn
				if nb*nb*pruneSlack > best {
					continue
				}
				d := distSq(q, sp.data[j*ix.m:(j+1)*ix.m])
				ce++
				if d < best || (d == best && j < bestJ) {
					best, bestJ = d, j
				}
			}
		}
		ix.putScratch(s)
	}
	ix.queries.Add(1)
	ix.colEvals.Add(ce)
	if se > 0 {
		ix.shardEvals.Add(se)
	}
	return bestJ, best
}

// NearestRaw returns the raw fingerprint column nearest to y and the
// squared Euclidean distance to it.
func (ix *Index) NearestRaw(y []float64) (int, float64) {
	return ix.nearest(&ix.raw, y)
}

// NearestCentered returns the mean-centered column nearest to the
// already-centered query yc and the squared distance to it. The drift
// residualizer's best-match search is exactly this call.
func (ix *Index) NearestCentered(yc []float64) (int, float64) {
	return ix.nearest(&ix.cen, yc)
}

// bestCorr returns the column maximizing |<unit_j, resid>| over columns
// with norms[j] > 0 and not listed in excluded, plus that absolute
// correlation; (-1, 0) when no column qualifies. Ties resolve to the
// lowest column index. norms is the (possibly masked) centered-norm
// overlay — a column masked to norm 0 is never selected, but the
// precomputed shard bounds remain valid upper bounds.
//
// Pruning uses the centroid decomposition bound
//
//	|<u_j, r>| <= |<c_s, r>| + ||u_j - c_s|| * ||r||
//	           <= |<c_s, r>| + rad_s * ||r||,
//
// so a shard whose bound cannot beat the current best is skipped whole
// without changing the answer.
func (ix *Index) bestCorr(resid []float64, norms []float64, excluded []int, info *SearchInfo) (int, float64) {
	if norms == nil {
		norms = ix.cen.norms
	}
	skip := func(j int) bool {
		if norms[j] == 0 {
			return true
		}
		for _, e := range excluded {
			if e == j {
				return true
			}
		}
		return false
	}
	eval := func(j int) float64 {
		var c float64
		uj := ix.unit.data[j*ix.m : (j+1)*ix.m]
		for i, v := range uj {
			c += v * resid[i]
		}
		return math.Abs(c)
	}
	best, bestJ := 0.0, -1
	var ce, se uint64
	var visited int
	if ix.cfg.Mode == SearchExact || len(ix.shards) <= 1 {
		for j := 0; j < ix.n; j++ {
			if skip(j) {
				continue
			}
			a := eval(j)
			ce++
			if a > best {
				best, bestJ = a, j
			}
		}
	} else {
		s := ix.getScratch()
		var rn float64
		for _, v := range resid {
			rn += v * v
		}
		rn = math.Sqrt(rn)
		S := len(ix.shards)
		s.order = growI(s.order, S)
		s.key = growF(s.key, S)
		for si := 0; si < S; si++ {
			cent := ix.unit.cents[si*ix.m : (si+1)*ix.m]
			var c float64
			for i, v := range cent {
				c += v * resid[i]
			}
			s.order[si] = si
			s.key[si] = math.Abs(c) + ix.unit.rads[si]*rn
		}
		se = uint64(S)
		sortByKey(s.order, s.key, true)
		for _, si := range s.order {
			if s.key[si]*corrSlack < best {
				break // descending bounds: nothing later can win
			}
			visited++
			sh := ix.shards[si]
			for j := sh.lo; j < sh.hi; j++ {
				if skip(j) {
					continue
				}
				a := eval(j)
				ce++
				if a > best || (a == best && bestJ >= 0 && j < bestJ) {
					best, bestJ = a, j
				}
			}
		}
		ix.putScratch(s)
	}
	ix.queries.Add(1)
	ix.colEvals.Add(ce)
	if se > 0 {
		ix.shardEvals.Add(se)
	}
	if info != nil {
		info.ColumnEvals += ce
		info.ShardEvals += se
		info.ShardsVisited += visited
	}
	return bestJ, best
}

// lsSolve computes the least-squares weights w minimizing
// ||A*w - rhs||2 for the m x k column-major matrix in qr (destroyed),
// destroying rhs, via Householder QR over caller scratch, so the
// pursuit hot path performs no allocations. v is a length-m reflector
// scratch; w receives the k weights.
func lsSolve(qr []float64, m, k int, rhs, v, w []float64) error {
	for c := 0; c < k; c++ {
		col := qr[c*m : (c+1)*m]
		var norm float64
		for i := c; i < m; i++ {
			norm += col[i] * col[i]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue // back-substitution reports the singular diagonal
		}
		alpha := -norm
		if col[c] < 0 {
			alpha = norm
		}
		v[c] = col[c] - alpha
		copy(v[c+1:m], col[c+1:m])
		var vn2 float64
		for i := c; i < m; i++ {
			vn2 += v[i] * v[i]
		}
		if vn2 == 0 {
			continue
		}
		beta := 2 / vn2
		for c2 := c; c2 < k; c2++ {
			col2 := qr[c2*m : (c2+1)*m]
			var s float64
			for i := c; i < m; i++ {
				s += v[i] * col2[i]
			}
			s *= beta
			for i := c; i < m; i++ {
				col2[i] -= s * v[i]
			}
		}
		var s float64
		for i := c; i < m; i++ {
			s += v[i] * rhs[i]
		}
		s *= beta
		for i := c; i < m; i++ {
			rhs[i] -= s * v[i]
		}
	}
	for i := k - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < k; j++ {
			s -= qr[j*m+i] * w[j]
		}
		d := qr[i*m+i]
		if d == 0 {
			return mat.ErrSingular
		}
		w[i] = s / d
	}
	return nil
}
