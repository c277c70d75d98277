package loc

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"iupdater/internal/geom"
	"iupdater/internal/mat"
	"iupdater/internal/testbed"
)

// syntheticFingerprints builds a smooth large-geometry fingerprint
// matrix over an 8-link grid with perStrip cells per strip: a per-link
// shadowing dip that moves with the cell position plus small seeded
// noise, so neighboring cells correlate the way real RSS fingerprints
// do and shard radii stay meaningful.
func syntheticFingerprints(perStrip int, seed int64) (*mat.Dense, geom.Grid) {
	const links = 8
	g := geom.NewGrid(12, 9, links, perStrip)
	rng := rand.New(rand.NewSource(seed))
	x := mat.New(links, g.NumCells())
	for j := 0; j < g.NumCells(); j++ {
		c := g.Center(j)
		for i := 0; i < links; i++ {
			linkY := (float64(i) + 0.5) * g.Height / links
			d := c.Y - linkY
			val := -42 - 9*math.Exp(-d*d/1.8) - 0.4*math.Sin(0.9*c.X+float64(i)) + 0.15*rng.NormFloat64()
			x.Set(i, j, val)
		}
	}
	return x, g
}

// TestIndexPrunedBitIdenticalToExhaustive is the exactness property:
// for random matrices, shard layouts and queries, every pruned-tier
// query must return bit-identical results (indices AND values) to the
// exhaustive reference, because the pruning bounds only ever skip
// provably non-winning work.
func TestIndexPrunedBitIdenticalToExhaustive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 3 + rng.Intn(8)
		n := 8 + rng.Intn(60)
		x := mat.RandomNormal(m, n, rng)
		stripLen := 1 + rng.Intn(n)
		ixP := NewIndex(x, stripLen, IndexConfig{Mode: SearchPruned, BlockSize: 1 + rng.Intn(8)})
		ixE := NewIndex(x, stripLen, IndexConfig{Mode: SearchExact})
		for q := 0; q < 5; q++ {
			y := make([]float64, m)
			base := x.Col(rng.Intn(n))
			for i := range y {
				y[i] = base[i] + 0.3*rng.NormFloat64()
			}
			jP, dP := ixP.NearestRaw(y)
			jE, dE := ixE.NearestRaw(y)
			if jP != jE || dP != dE {
				return false
			}
			var mean float64
			for _, v := range y {
				mean += v
			}
			mean /= float64(m)
			yc := make([]float64, m)
			for i, v := range y {
				yc[i] = v - mean
			}
			jP, dP = ixP.NearestCentered(yc)
			jE, dE = ixE.NearestCentered(yc)
			if jP != jE || dP != dE {
				return false
			}
			excl := []int{rng.Intn(n)}
			var info SearchInfo
			bjP, bcP := ixP.bestCorr(yc, nil, excl, &info)
			bjE, bcE := ixE.bestCorr(yc, nil, excl, nil)
			if info.ColumnEvals == 0 {
				t.Fatalf("per-query SearchInfo recorded no column evals")
			}
			if bjP != bjE || bcP != bcE {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestIndexPrunedTieBreaksMatchExhaustive forces exact distance ties
// with duplicated columns: both tiers must resolve to the lowest column
// index.
func TestIndexPrunedTieBreaksMatchExhaustive(t *testing.T) {
	const m, n = 4, 12
	x := mat.New(m, n)
	rng := rand.New(rand.NewSource(9))
	proto := make([]float64, m)
	for i := range proto {
		proto[i] = rng.NormFloat64()
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if j == 3 || j == 7 || j == 10 {
				x.Set(i, j, proto[i]) // exact duplicates across shards
			} else {
				x.Set(i, j, rng.NormFloat64()+3)
			}
		}
	}
	ixP := NewIndex(x, 4, IndexConfig{Mode: SearchPruned, BlockSize: 2})
	ixE := NewIndex(x, 4, IndexConfig{Mode: SearchExact})
	jP, dP := ixP.NearestRaw(proto)
	jE, dE := ixE.NearestRaw(proto)
	if jP != 3 || jE != 3 || dP != dE {
		t.Errorf("tie broke to %d/%d (dist %v/%v), want column 3 in both tiers", jP, jE, dP, dE)
	}
}

// pursueWeighted runs the greedy pursuit and returns copies of the
// selected columns and their final least-squares weights.
func pursueWeighted(o *OMP, y []float64) ([]int, []float64, error) {
	s, sel, w, err := o.pursue(y, nil)
	if err != nil {
		return nil, nil, err
	}
	defer o.ix.putScratch(s)
	return append([]int(nil), sel...), append([]float64(nil), w...), nil
}

// TestOMPPrunedPursuitMatchesExhaustive runs the full greedy pursuit
// over both tiers on realistic office measurements: selections and
// weights must be bit-identical.
func TestOMPPrunedPursuitMatchesExhaustive(t *testing.T) {
	s, x := officeScenario(37)
	g := s.Channel.Grid()
	ompP := NewOMPIndex(NewIndex(x, g.PerStrip, IndexConfig{Mode: SearchPruned}), OMPConfig{})
	ompE := NewOMPIndex(NewIndex(x, g.PerStrip, IndexConfig{Mode: SearchExact}), OMPConfig{})
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 25; trial++ {
		p := geom.Point{X: rng.Float64() * g.Width, Y: rng.Float64() * g.Height}
		y := s.MeasureOnline(p, 400+float64(trial)*37, testbed.IUpdaterSamples)
		selP, wP, errP := pursueWeighted(ompP, y)
		selE, wE, errE := pursueWeighted(ompE, y)
		if (errP == nil) != (errE == nil) {
			t.Fatalf("trial %d: pruned err %v, exhaustive err %v", trial, errP, errE)
		}
		if errP != nil {
			continue
		}
		if len(selP) != len(selE) {
			t.Fatalf("trial %d: pruned selected %v, exhaustive %v", trial, selP, selE)
		}
		for i := range selP {
			if selP[i] != selE[i] || wP[i] != wE[i] {
				t.Fatalf("trial %d: pruned (%v, %v), exhaustive (%v, %v)", trial, selP, wP, selE, wE)
			}
		}
	}
}

// TestPrunedMatchesExhaustiveLargeGrid checks the exactness contract
// at scale: at 100x the office grid size the pruned tier's nearest
// column equals the exhaustive reference's on every query. Its
// reduction in column evaluations is data-dependent, so it is only
// reported.
func TestPrunedMatchesExhaustiveLargeGrid(t *testing.T) {
	x, g := syntheticFingerprints(1200, 7) // n = 9600 = 100x office
	exact := NewIndex(x, g.PerStrip, IndexConfig{Mode: SearchExact})
	pruned := NewIndex(x, g.PerStrip, IndexConfig{Mode: SearchPruned})
	rng := rand.New(rand.NewSource(8))
	_, n := x.Dims()
	const queries = 64
	for q := 0; q < queries; q++ {
		base := x.Col(rng.Intn(n))
		y := make([]float64, len(base))
		for i := range y {
			y[i] = base[i] + 0.3*rng.NormFloat64()
		}
		jE, _ := exact.NearestRaw(y)
		jP, _ := pruned.NearestRaw(y)
		if jP != jE {
			t.Fatalf("query %d: pruned nearest %d, exhaustive %d", q, jP, jE)
		}
	}
	evalsPerQuery := func(ix *Index) float64 {
		st := ix.Stats()
		return float64(st.ColumnEvals+st.ShardEvals) / float64(st.Queries)
	}
	exactEv, prunedEv := evalsPerQuery(exact), evalsPerQuery(pruned)
	t.Logf("evals/query at n=%d: exact %.0f, pruned %.0f (%.1fx)", n, exactEv, prunedEv, exactEv/prunedEv)
}

// lsSystem returns a random m x k column-major matrix with entries in
// [-1, 1) and a working copy of it for lsSolve to destroy.
func lsSystem(rng *rand.Rand, m, k int) (a, work []float64) {
	a = make([]float64, m*k)
	for i := range a {
		a[i] = 2*rng.Float64() - 1
	}
	return a, append([]float64(nil), a...)
}

// mulCols returns a*x for the m x len(x) column-major matrix a.
func mulCols(a []float64, m int, x []float64) []float64 {
	out := make([]float64, m)
	for c, xc := range x {
		for i := range out {
			out[i] += a[c*m+i] * xc
		}
	}
	return out
}

// TestLSSolveRecoversExactSolution: on a consistent overdetermined
// system the pursuit's least-squares solve returns the generating
// weights.
func TestLSSolveRecoversExactSolution(t *testing.T) {
	const m, k = 10, 4
	a, work := lsSystem(rand.New(rand.NewSource(14)), m, k)
	xTrue := []float64{1, -2, 3, 0.5}
	rhs := mulCols(a, m, xTrue)
	w := make([]float64, k)
	if err := lsSolve(work, m, k, rhs, make([]float64, m), w); err != nil {
		t.Fatalf("lsSolve: %v", err)
	}
	for i := range xTrue {
		if math.Abs(w[i]-xTrue[i]) > 1e-9 {
			t.Errorf("w[%d] = %v, want %v", i, w[i], xTrue[i])
		}
	}
}

// TestLSSolveResidualOrthogonality: the least-squares residual is
// orthogonal to the column space.
func TestLSSolveResidualOrthogonality(t *testing.T) {
	const m, k = 12, 5
	rng := rand.New(rand.NewSource(15))
	a, work := lsSystem(rng, m, k)
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	w := make([]float64, k)
	if err := lsSolve(work, m, k, append([]float64(nil), b...), make([]float64, m), w); err != nil {
		t.Fatalf("lsSolve: %v", err)
	}
	fit := mulCols(a, m, w)
	for c := 0; c < k; c++ {
		var dot float64
		for i := 0; i < m; i++ {
			dot += a[c*m+i] * (b[i] - fit[i])
		}
		if math.Abs(dot) > 1e-9 {
			t.Errorf("column %d · residual = %v, want ~0", c, dot)
		}
	}
}

// TestQueryPathAllocFree pins the 0-allocs/op contract of the steady-
// state query hot paths: OMP point localization, nearest-column, and
// the raw index queries.
func TestQueryPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop items, so pooled paths allocate")
	}
	x, g := syntheticFingerprints(120, 3) // 10x office keeps the pool honest
	ix := NewIndex(x, g.PerStrip, IndexConfig{})
	omp := NewOMPPointIndex(ix, g, OMPConfig{})
	nc := &NearestColumn{ix: ix}
	_, n := x.Dims()
	y := append([]float64(nil), x.Col(n/3)...)
	// Warm the scratch pool (the pursuit and its nested search each hold
	// one scratch).
	for i := 0; i < 8; i++ {
		if _, err := omp.Locate(y); err != nil {
			t.Fatal(err)
		}
	}
	checks := []struct {
		name string
		fn   func()
	}{
		{"OMPPoint.Locate", func() { omp.Locate(y) }},
		{"OMPPoint.LocatePoint", func() { omp.LocatePoint(y) }},
		{"NearestColumn.Locate", func() { nc.Locate(y) }},
		{"Index.NearestRaw", func() { ix.NearestRaw(y) }},
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(200, c.fn); allocs > 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, allocs)
		}
	}
}

// TestQueriedIndexIsCollectable: an index nothing references any more
// is freed by the first GC after its last query. The query scratch pool
// must not pin it: the runtime keeps each pool used since the last GC
// reachable until the GC after next, so a pool inside the index held
// every index a parking fleet dropped that long.
func TestQueriedIndexIsCollectable(t *testing.T) {
	freed := make(chan struct{})
	func() {
		x, g := syntheticFingerprints(12, 5)
		ix := NewIndex(x, g.PerStrip, IndexConfig{})
		ix.NearestRaw(x.Col(3))
		runtime.SetFinalizer(ix, func(*Index) { close(freed) })
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("a dropped index survived a GC after its last query")
	}
}

// TestIndexSearchStatsAccumulate sanity-checks the counters: every
// query is counted, and the exhaustive tier reports exactly n column
// evaluations per nearest query.
func TestIndexSearchStatsAccumulate(t *testing.T) {
	x, g := syntheticFingerprints(12, 11)
	ix := NewIndex(x, g.PerStrip, IndexConfig{Mode: SearchExact})
	_, n := x.Dims()
	y := x.Col(5)
	for q := 0; q < 7; q++ {
		ix.NearestRaw(y)
	}
	st := ix.Stats()
	if st.Queries != 7 || st.ColumnEvals != uint64(7*n) {
		t.Errorf("stats = %+v, want 7 queries, %d column evals", st, 7*n)
	}
}
