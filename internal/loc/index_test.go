package loc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

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
			k := 1 + rng.Intn(6)
			outJP, outDP := make([]int, k), make([]float64, k)
			outJE, outDE := make([]int, k), make([]float64, k)
			gotP := ixP.TopKRaw(y, k, outJP, outDP)
			gotE := ixE.TopKRaw(y, k, outJE, outDE)
			if gotP != gotE {
				return false
			}
			for i := 0; i < gotP; i++ {
				if outJP[i] != outJE[i] || outDP[i] != outDE[i] {
					return false
				}
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
			bjP, bcP := ixP.bestCorr(yc, nil, excl, SearchPruned, &info)
			bjE, bcE := ixE.bestCorr(yc, nil, excl, SearchExact, nil)
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
	outJ, outD := make([]int, 3), make([]float64, 3)
	if got := ixP.TopKRaw(proto, 3, outJ, outD); got != 3 || outJ[0] != 3 || outJ[1] != 7 || outJ[2] != 10 {
		t.Errorf("pruned top-3 of a 3-way tie = %v (n=%d), want [3 7 10]", outJ, got)
	}
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
		selP, wP, errP := ompP.PursueWeighted(y)
		selE, wE, errE := ompE.PursueWeighted(y)
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

// TestShardedSearchAccuracyBudget measures the approximate tier's
// accuracy budget on the office evaluation scenario across three seeds:
// the mean localization error under sharded search (default fanout)
// must stay within 0.1 of the exact tier's.
func TestShardedSearchAccuracyBudget(t *testing.T) {
	for _, seed := range []uint64{41, 42, 43} {
		s, x := officeScenario(seed)
		g := s.Channel.Grid()
		exact := NewOMPPointIndex(NewIndex(x, g.PerStrip, IndexConfig{Mode: SearchExact}), g, OMPConfig{})
		shard := NewOMPPointIndex(NewIndex(x, g.PerStrip, IndexConfig{Mode: SearchSharded}), g, OMPConfig{})
		rng := rand.New(rand.NewSource(int64(seed)))
		const trials = 60
		var exErr, shErr float64
		for k := 0; k < trials; k++ {
			p := geom.Point{X: rng.Float64() * g.Width, Y: rng.Float64() * g.Height}
			y := s.MeasureOnline(p, 400+float64(k)*29, testbed.IUpdaterSamples)
			pe, err := exact.LocatePoint(y)
			if err != nil {
				t.Fatalf("seed %d trial %d exact: %v", seed, k, err)
			}
			ps, err := shard.LocatePoint(y)
			if err != nil {
				t.Fatalf("seed %d trial %d sharded: %v", seed, k, err)
			}
			exErr += pe.Distance(p)
			shErr += ps.Distance(p)
		}
		deg := (shErr - exErr) / trials
		t.Logf("seed %d: exact mean error %.3f m, sharded %.3f m (degradation %.4f)",
			seed, exErr/trials, shErr/trials, deg)
		if deg > 0.1 {
			t.Errorf("seed %d: sharded search degrades mean error by %.3f m, budget 0.1", seed, deg)
		}
	}
}

// TestShardedEvalReductionLargeGrid enforces the scale target: at 100x
// the office grid size, sharded search must evaluate at least 5x fewer
// columns per query than the exhaustive reference. The pruned tier's
// reduction is data-dependent (it is exact), so it is only reported.
func TestShardedEvalReductionLargeGrid(t *testing.T) {
	x, g := syntheticFingerprints(1200, 7) // n = 9600 = 100x office
	exact := NewIndex(x, g.PerStrip, IndexConfig{Mode: SearchExact})
	pruned := NewIndex(x, g.PerStrip, IndexConfig{Mode: SearchPruned})
	shard := NewIndex(x, g.PerStrip, IndexConfig{Mode: SearchSharded})
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
		shard.NearestRaw(y)
	}
	evalsPerQuery := func(ix *Index) float64 {
		st := ix.Stats()
		return float64(st.ColumnEvals+st.ShardEvals) / float64(st.Queries)
	}
	exactEv, prunedEv, shardEv := evalsPerQuery(exact), evalsPerQuery(pruned), evalsPerQuery(shard)
	t.Logf("evals/query at n=%d: exact %.0f, pruned %.0f (%.1fx), sharded %.0f (%.1fx)",
		n, exactEv, prunedEv, exactEv/prunedEv, shardEv, exactEv/shardEv)
	if ratio := exactEv / shardEv; ratio < 5 {
		t.Errorf("sharded search reduces evals only %.1fx at 100x grid, want >= 5x", ratio)
	}
}

// TestQueryPathAllocFree pins the 0-allocs/op contract of the steady-
// state query hot paths: OMP point localization, nearest-column, KNN
// top-k into caller storage, and the raw index queries.
func TestQueryPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop items, so pooled paths allocate")
	}
	x, g := syntheticFingerprints(120, 3) // 10x office keeps the pool honest
	ix := NewIndex(x, g.PerStrip, IndexConfig{})
	omp := NewOMPPointIndex(ix, g, OMPConfig{})
	knn := NewKNNIndex(ix, 5)
	nc := NewNearestColumnIndex(ix)
	_, n := x.Dims()
	y := append([]float64(nil), x.Col(n/3)...)
	idx, dist := make([]int, 5), make([]float64, 5)
	// Warm the scratch pool (the pursuit and its nested search each hold
	// one scratch).
	for i := 0; i < 8; i++ {
		if _, err := omp.Locate(y); err != nil {
			t.Fatal(err)
		}
		if _, err := knn.NeighborsInto(y, idx, dist); err != nil {
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
		{"KNN.NeighborsInto", func() { knn.NeighborsInto(y, idx, dist) }},
		{"Index.NearestRaw", func() { ix.NearestRaw(y) }},
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(200, c.fn); allocs > 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, allocs)
		}
	}
}

// TestKNNLocateIsNearestNeighbor pins why KNN has no Locate of its own:
// with one column per cell the inverse-distance vote would always elect
// the nearest neighbor, and Neighbors' first result agrees with
// NearestColumn.Locate on every query.
func TestKNNLocateIsNearestNeighbor(t *testing.T) {
	_, x := officeScenario(33)
	knn := NewKNN(x, 5)
	nc := NewNearestColumn(x)
	m, n := x.Dims()
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 50; trial++ {
		base := x.Col(rng.Intn(n))
		y := make([]float64, m)
		for i := range y {
			y[i] = base[i] + rng.NormFloat64()
		}
		idx, _, err := knn.Neighbors(y)
		if err != nil {
			t.Fatal(err)
		}
		got, err := nc.Locate(y)
		if err != nil {
			t.Fatal(err)
		}
		if got != idx[0] {
			t.Fatalf("trial %d: NearestColumn.Locate = %d, nearest neighbor = %d", trial, got, idx[0])
		}
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

func BenchmarkKNNNeighbors(b *testing.B) {
	x, g := syntheticFingerprints(120, 5) // 10x office
	knn := NewKNNIndex(NewIndex(x, g.PerStrip, IndexConfig{}), 5)
	_, n := x.Dims()
	y := append([]float64(nil), x.Col(n/2)...)
	idx, dist := make([]int, 5), make([]float64, 5)
	if _, err := knn.NeighborsInto(y, idx, dist); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knn.NeighborsInto(y, idx, dist)
	}
}
