package iupdater

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"
)

// replicaGeometry is a small but non-trivial layout for replication
// tests: 4 links x 24 cells per strip = 96 fingerprint columns.
var replicaGeometry = Geometry{WidthM: 8, HeightM: 4, Links: 4, PerStrip: 24}

// replicaMatrix builds a deterministic fingerprint matrix for the test
// geometry, varied by seed so successive versions differ.
func replicaMatrix(seed int) Matrix {
	g := replicaGeometry
	rows := make([][]float64, g.Links)
	for i := range rows {
		rows[i] = make([]float64, g.NumCells())
		for j := range rows[i] {
			rows[i][j] = -40 - float64((i*31+j*7+seed*13)%200)/10
		}
	}
	m, err := MatrixFromRows(rows)
	if err != nil {
		panic(err)
	}
	return m
}

// perturbColumn returns m with a single fingerprint column nudged.
func perturbColumn(m Matrix, col int, by float64) Matrix {
	out := m.Clone()
	rows := out.ToRows()
	for i := range rows {
		rows[i][col] += by
	}
	p, err := MatrixFromRows(rows)
	if err != nil {
		panic(err)
	}
	return p
}

func openReplicaLeader(t *testing.T) (*Deployment, *httptest.Server) {
	t.Helper()
	st, err := OpenStore(t.TempDir(), WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDeployment(replicaMatrix(0), replicaGeometry, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := httptest.NewServer(d.ServeRecords())
	t.Cleanup(srv.Close)
	return d, srv
}

func fastReplica(t *testing.T, url string, opts ...ReplicaOption) *Replica {
	t.Helper()
	opts = append([]ReplicaOption{
		WithReplicaWait(150 * time.Millisecond),
		WithReplicaBackoff(2*time.Millisecond, 25*time.Millisecond),
	}, opts...)
	rep, err := OpenReplica(url, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	return rep
}

// TestReplicationEndToEnd is the leader/follower acceptance hammer
// (run under -race in CI): a follower tails a leader through a mixed
// full/delta version line and serves bit-identical snapshots at every
// version it reaches, survives a forced mid-line disconnect, and after
// Promote continues the same version line as a writer.
//
// The leader warm-starts from testdata/delta-replica.log, written by an
// earlier version that persisted single-column perturbations as delta
// records: v1 full, v2-v3 deltas, v4 full (a wholesale change), v5-v6
// deltas. The follower bootstraps at v4 and resolves the v5-v6 chain.
func TestReplicationEndToEnd(t *testing.T) {
	st, _ := openFixtureStore(t, "delta-replica.log", WithoutSync())
	d, err := OpenDeployment(st)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.ServeRecords())
	t.Cleanup(srv.Close)
	repStore, err := OpenStore(t.TempDir(), WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer repStore.Close()
	rep := fastReplica(t, srv.URL, WithReplicaStore(repStore))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// checkSync publishes nothing itself: it waits for the follower to
	// reach the leader's version and demands bit-identity.
	checkSync := func(t *testing.T) {
		t.Helper()
		want := d.Snapshot()
		got, err := rep.WaitVersion(ctx, want.Version())
		if err != nil {
			t.Fatal(err)
		}
		if got.Version() != want.Version() {
			t.Fatalf("follower at v%d, leader at v%d", got.Version(), want.Version())
		}
		if !matricesEqual(got.Fingerprints(), want.Fingerprints()) {
			t.Fatalf("follower snapshot v%d is not bit-identical to the leader's", got.Version())
		}
		// Localization, not just the raw matrix, must agree: both sides
		// built their localizer from the same published bits.
		rss := []float64{-48.5, -51.25, -47, -52.125}
		lp, lerr := d.Locate(rss)
		fp, ferr := rep.Locate(rss)
		if lerr != nil || ferr != nil || lp != fp {
			t.Fatalf("Locate diverged: leader (%v, %v) follower (%v, %v)", lp, lerr, fp, ferr)
		}
	}
	if v := d.Version(); v != 6 {
		t.Fatalf("leader warm-started at v%d, want 6", v)
	}
	checkSync(t)

	// The line continues with full records, perturbations and a
	// wholesale change alike. The follower is checked at every version,
	// concurrently with the next publish being prepared.
	cur := d.Snapshot().Fingerprints()
	for v := 7; v <= 9; v++ {
		if v == 8 {
			cur = replicaMatrix(v)
		} else {
			cur = perturbColumn(cur, (v*11)%replicaGeometry.NumCells(), 0.5)
		}
		if _, err := d.Install(cur); err != nil {
			t.Fatal(err)
		}
		checkSync(t)
	}
	kinds := make(map[string]int)
	for _, rec := range d.Store().Records() {
		kinds[rec.Kind]++
	}
	if kinds["full"] < 2 || kinds["delta"] < 2 {
		t.Fatalf("version line was not mixed: %v", kinds)
	}

	// Forced disconnect: kill every follower connection mid-long-poll,
	// publish while the follower is down, and require it to resume.
	srv.CloseClientConnections()
	cur = perturbColumn(cur, 3, -0.25)
	if _, err := d.Install(cur); err != nil {
		t.Fatal(err)
	}
	checkSync(t)

	if lag := rep.Lag(); lag != 0 {
		t.Fatalf("caught-up lag %d", lag)
	}

	// Promote: the old leader stops, the follower takes over the line.
	takeover := rep.Version()
	srv.Close()
	promoted, err := rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if promoted.Version() != takeover {
		t.Fatalf("promoted at v%d, follower was at v%d", promoted.Version(), takeover)
	}
	// The handover was made durable in the replica's own store...
	if got := repStore.LatestVersion(); got != takeover {
		t.Fatalf("replica store seeded at v%d, want v%d", got, takeover)
	}
	fp, g, err := repStore.SnapshotAt(takeover)
	if err != nil || g != replicaGeometry || !matricesEqual(fp, d.Snapshot().Fingerprints()) {
		t.Fatalf("seeded takeover snapshot mismatch (err %v)", err)
	}
	// ...and the next publish continues the same monotone line.
	next, err := promoted.Install(perturbColumn(cur, 9, 1))
	if err != nil {
		t.Fatal(err)
	}
	if next.Version() != takeover+1 {
		t.Fatalf("post-promotion publish v%d, want v%d", next.Version(), takeover+1)
	}
	if got := repStore.LatestVersion(); got != takeover+1 {
		t.Fatalf("store after post-promotion publish at v%d", got)
	}
	if _, err := rep.Promote(); err == nil {
		t.Fatal("second Promote succeeded")
	}
	if status := rep.Status(); !status.Promoted || status.Version != takeover+1 {
		t.Fatalf("post-promotion status %+v", status)
	}
}

// TestReplicaSearchParity pins the follower/leader locate-index
// contract: follower snapshots build the same snapshot-time index from
// the replicated bits, so Locate is bit-identical to the leader at the
// same version — both when both ends are pinned to the exhaustive
// reference (WithExactSearch / WithReplicaExactSearch) and when the
// follower runs the default pruned tier, whose results are exact by
// construction.
func TestReplicaSearchParity(t *testing.T) {
	st, err := OpenStore(t.TempDir(), WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d, err := NewDeployment(replicaMatrix(0), replicaGeometry, WithStore(st), WithExactSearch())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.ServeRecords())
	defer srv.Close()
	repExact := fastReplica(t, srv.URL, WithReplicaExactSearch())
	repPruned := fastReplica(t, srv.URL) // default tier: pruned, still exact results

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	queries := func() [][]float64 {
		rows := d.Snapshot().Fingerprints().ToRows()
		out := make([][]float64, 0, 12)
		for q := 0; q < 12; q++ {
			col := (q * 17) % replicaGeometry.NumCells()
			y := make([]float64, replicaGeometry.Links)
			for i := range y {
				y[i] = rows[i][col] + float64(q%5)*0.375 - 0.75
			}
			out = append(out, y)
		}
		return out
	}

	check := func(t *testing.T) {
		t.Helper()
		want := d.Snapshot()
		if _, err := repExact.WaitVersion(ctx, want.Version()); err != nil {
			t.Fatal(err)
		}
		if _, err := repPruned.WaitVersion(ctx, want.Version()); err != nil {
			t.Fatal(err)
		}
		for qi, y := range queries() {
			lp, err := d.Locate(y)
			if err != nil {
				t.Fatalf("query %d: leader: %v", qi, err)
			}
			lc, err := d.LocateCell(y)
			if err != nil {
				t.Fatalf("query %d: leader cell: %v", qi, err)
			}
			for name, rep := range map[string]*Replica{"exact": repExact, "pruned": repPruned} {
				fp, err := rep.Locate(y)
				if err != nil {
					t.Fatalf("query %d: %s follower: %v", qi, name, err)
				}
				if fp != lp {
					t.Fatalf("query %d: %s follower Locate %+v, leader %+v", qi, name, fp, lp)
				}
				fc, err := rep.Snapshot().LocateCell(y)
				if err != nil || fc != lc {
					t.Fatalf("query %d: %s follower cell (%d, %v), leader %d", qi, name, fc, err, lc)
				}
			}
		}
	}
	check(t)

	cur := replicaMatrix(0)
	for v := 2; v <= 4; v++ {
		cur = perturbColumn(cur, (v*13)%replicaGeometry.NumCells(), 0.5)
		if _, err := d.Install(cur); err != nil {
			t.Fatal(err)
		}
		check(t)
	}
	// The exhaustive leader really ran exhaustively: every search
	// evaluated all N columns (minus the few the pursuit had already
	// selected and therefore excluded).
	stats := d.Snapshot().SearchStats()
	if stats.Queries == 0 || stats.ColumnEvals < stats.Queries*uint64(replicaGeometry.NumCells()-3) {
		t.Fatalf("exact-search leader stats %+v, want ~%d column evals per query",
			stats, replicaGeometry.NumCells())
	}
}

// TestReplicaFleetSite registers a follower in a Fleet: the summary
// carries the replication status, and Close tears the tailer down.
func TestReplicaFleetSite(t *testing.T) {
	d, srv := openReplicaLeader(t)
	rep := fastReplica(t, srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := rep.WaitVersion(ctx, 1); err != nil {
		t.Fatal(err)
	}

	f := NewFleet()
	site, err := f.AddReplica("branch", rep)
	if err != nil {
		t.Fatal(err)
	}
	if site.Deployment() != nil || site.Replica() != rep {
		t.Fatal("replica site should expose the replica, not a deployment")
	}
	if _, err := f.AddReplica("branch", rep); err == nil {
		t.Fatal("duplicate AddReplica succeeded")
	}
	sums := f.Summaries()
	if len(sums) != 1 || sums[0].Replica == nil {
		t.Fatalf("summaries %+v", sums)
	}
	if sums[0].Replica.Source != srv.URL || sums[0].Version != 1 {
		t.Fatalf("replica summary %+v", sums[0].Replica)
	}
	if sums[0].Links != replicaGeometry.Links || sums[0].Cells != replicaGeometry.NumCells() {
		t.Fatalf("summary geometry %d/%d", sums[0].Links, sums[0].Cells)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// The fleet stopped the tailer; a leader publish no longer
	// propagates.
	if _, err := d.Install(replicaMatrix(9)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if v := rep.Version(); v != 1 {
		t.Fatalf("closed replica advanced to v%d", v)
	}
}

// TestPromoteUnderActiveStream stresses Promote against a tailer that
// is actively applying records: a publisher hammers the leader's
// version line while followers repeatedly connect, sync at least one
// version, and promote mid-stream. Every attempt must complete within
// the deadline — a hang here is the Promote-vs-apply interleaving this
// test exists to pin down.
func TestPromoteUnderActiveStream(t *testing.T) {
	d, srv := openReplicaLeader(t)

	stop := make(chan struct{})
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := d.Install(replicaMatrix(i)); err != nil {
				return
			}
		}
	}()
	defer func() { close(stop); <-pubDone }()

	// Bound the whole stress run, not just each attempt: under -race on
	// a loaded machine 40 attempts can outlast the package timeout.
	deadline := time.Now().Add(30 * time.Second)
	for attempt := 0; attempt < 40 && time.Now().Before(deadline); attempt++ {
		rep, err := OpenReplica(srv.URL,
			WithReplicaWait(100*time.Millisecond),
			WithReplicaBackoff(time.Millisecond, 10*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		for rep.Version() == 0 {
			time.Sleep(200 * time.Microsecond)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			rep.Promote()
		}()
		select {
		case <-done:
			rep.Close()
		case <-time.After(10 * time.Second):
			t.Fatalf("attempt %d: Promote deadlocked while the tailer was applying records", attempt)
		}
	}
}
