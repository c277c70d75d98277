package iupdater

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// addMemorySite registers one durable site backed by an in-memory
// store Backend: full store semantics (delta records, recovery,
// rehydration) without touching disk, which keeps hundreds of sites
// cheap under -race. Publishes versions-1 perturbed snapshots past the
// initial install and returns the site plus the fingerprints the final
// version must rehydrate to, bit-identical.
func addMemorySite(t testing.TB, f *Fleet, name string, seed, versions int) (*Site, Matrix) {
	t.Helper()
	st, err := OpenStore("", WithBackend(NewMemoryBackend()), WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	fp := replicaMatrix(seed)
	d, err := NewDeployment(fp, replicaGeometry, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	for v := 2; v <= versions; v++ {
		fp = perturbColumn(fp, (seed*7+v*11)%replicaGeometry.NumCells(), 0.25)
		if _, err := d.Install(fp); err != nil {
			t.Fatal(err)
		}
	}
	site, err := f.AddSite(name, SiteConfig{Deployment: d})
	if err != nil {
		t.Fatal(err)
	}
	return site, fp
}

// TestFleetResidentLimitParksAndRehydrates: adding past the resident
// limit parks the least-recently-used durable site — deployment and
// index released, store retained — and the parked site's next query
// re-materializes the exact published fingerprints through the store's
// delta-chain resolution.
func TestFleetResidentLimitParksAndRehydrates(t *testing.T) {
	f := NewFleet(WithResidentLimit(2))
	defer f.Close()
	siteA, fpA := addMemorySite(t, f, "a", 1, 3)
	siteB, fpB := addMemorySite(t, f, "b", 2, 2)
	siteC, _ := addMemorySite(t, f, "c", 3, 2)

	// "a" was touched first, so registering "c" must have parked it.
	if siteA.Hydrated() {
		t.Fatal("LRU site still hydrated past the resident limit")
	}
	if !siteB.Hydrated() || !siteC.Hydrated() {
		t.Fatal("recently touched sites were parked")
	}
	stats := f.Stats()
	if stats.Sites != 3 || stats.Resident != 2 || stats.Evictions != 1 || stats.Rehydrations != 0 {
		t.Fatalf("stats %+v, want 3 sites, 2 resident, 1 eviction", stats)
	}

	// A parked site still summarizes from its store — version, records,
	// horizon — without rehydrating.
	sums := f.Summaries()
	if sums[0].Name != "a" || sums[0].Hydrated || sums[0].Version != 3 || !sums[0].Durable {
		t.Fatalf("parked summary %+v, want !hydrated v3 durable", sums[0])
	}
	if sums[0].Search != nil || sums[0].Drift != nil {
		t.Fatalf("parked summary %+v carries materialized-only state", sums[0])
	}
	if sums[0].OldestVersion != 1 || len(sums[0].StoredVersions) != 3 {
		t.Fatalf("parked summary store state %+v", sums[0])
	}
	if siteA.Hydrated() {
		t.Fatal("Summaries rehydrated a parked site")
	}

	// First query pays the rehydration and gets the exact fingerprints
	// back; the limit then parks the new LRU ("b").
	d, mon, err := siteA.Hydrate()
	if err != nil {
		t.Fatal(err)
	}
	if mon != nil {
		t.Fatal("unmonitored site rehydrated with a monitor")
	}
	if d.Version() != 3 || !matricesEqual(d.Snapshot().Fingerprints(), fpA) {
		t.Fatal("rehydrated fingerprints are not bit-identical to the published version")
	}
	if _, err := d.Snapshot().Locate(nil); err == nil {
		t.Fatal("rehydrated snapshot accepted an empty measurement")
	}
	stats = f.Stats()
	if stats.Resident != 2 || stats.Rehydrations != 1 || stats.Evictions != 2 {
		t.Fatalf("post-rehydration stats %+v", stats)
	}
	if siteB.Hydrated() {
		t.Fatal("rehydrating a parked b's eviction victim mismatch: b still resident")
	}
	if hs := f.RehydrationLatency().Snapshot(); hs.Count != 1 {
		t.Fatalf("rehydration latency count %d, want 1", hs.Count)
	}

	// And b rehydrates bit-identically too.
	db, _, err := siteB.Hydrate()
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(db.Snapshot().Fingerprints(), fpB) {
		t.Fatal("site b rehydrated to different fingerprints")
	}

	// A removed site's handle fails to hydrate instead of resurrecting
	// a closed store.
	if err := f.RemoveSite("a"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := siteA.Hydrate(); err == nil {
		t.Fatal("Hydrate succeeded on a removed site")
	}
}

// TestFleetCountersSurviveParking: a site's locate latency, update-stage
// latency and publish counters belong to the site, not to the
// Deployment parking releases, so a park → rehydrate cycle continues
// them instead of resetting them to zero.
func TestFleetCountersSurviveParking(t *testing.T) {
	f := NewFleet(WithResidentLimit(1))
	defer f.Close()
	siteA, _ := addMemorySite(t, f, "a", 1, 3) // two Installs: two publishes
	d, _, err := siteA.Hydrate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Locate(replicaMatrix(1).Col(0)); err != nil {
		t.Fatal(err)
	}
	locates := d.LocateLatency().Snapshot().Count
	persists := d.UpdateStageLatency(StagePersist).Snapshot().Count
	publishes := d.Publishes()
	if locates == 0 || persists == 0 || publishes == 0 {
		t.Fatalf("pre-park counters: %d locates, %d persists, %d publishes", locates, persists, publishes)
	}

	addMemorySite(t, f, "b", 2, 1)
	if siteA.Hydrated() {
		t.Fatal("site a not parked past the resident limit")
	}
	d2, _, err := siteA.Hydrate()
	if err != nil {
		t.Fatal(err)
	}
	if d2 == d {
		t.Fatal("rehydration returned the parked deployment")
	}
	if got := d2.LocateLatency().Snapshot().Count; got < locates {
		t.Errorf("locate latency count %d after rehydration, want >= %d", got, locates)
	}
	if got := d2.UpdateStageLatency(StagePersist).Snapshot().Count; got < persists {
		t.Errorf("persist stage count %d after rehydration, want >= %d", got, persists)
	}
	if got := d2.Publishes(); got < publishes {
		t.Errorf("publishes %d after rehydration, want >= %d", got, publishes)
	}
}

// TestFleetResidentLimitSkipsUnparkables: in-memory sites (no store to
// rehydrate from) and monitored sites without a MonitorFactory stay
// resident no matter the pressure — parking either would lose state the
// fleet cannot restore.
func TestFleetResidentLimitSkipsUnparkables(t *testing.T) {
	f := NewFleet(WithResidentLimit(1))
	defer f.Close()
	dMem, err := NewDeployment(replicaMatrix(9), replicaGeometry)
	if err != nil {
		t.Fatal(err)
	}
	memSite, err := f.AddSite("volatile", SiteConfig{Deployment: dMem})
	if err != nil {
		t.Fatal(err)
	}

	stMon, err := OpenStore("", WithBackend(NewMemoryBackend()), WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	dMon, err := NewDeployment(replicaMatrix(10), replicaGeometry, WithStore(stMon))
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(dMon, nil)
	if err != nil {
		t.Fatal(err)
	}
	monSite, err := f.AddSite("pinned-monitor", SiteConfig{Deployment: dMon, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}

	// The site being added is exempt from its own eviction pass, so the
	// first parkable site stays resident until a second one shows up.
	parkable, _ := addMemorySite(t, f, "parkable", 11, 2)
	parkable2, _ := addMemorySite(t, f, "parkable2", 13, 2)
	if !memSite.Hydrated() || !monSite.Hydrated() {
		t.Fatal("unparkable site was parked")
	}
	if parkable.Hydrated() {
		t.Fatal("LRU parkable site survived over-limit pressure")
	}
	if !parkable2.Hydrated() {
		t.Fatal("just-added site was parked by its own eviction pass")
	}

	// A monitored site added with a factory is parkable, and parking +
	// rehydration rebuilds its monitor.
	stF, err := OpenStore("", WithBackend(NewMemoryBackend()), WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	dF, err := NewDeployment(replicaMatrix(12), replicaGeometry, WithStore(stF))
	if err != nil {
		t.Fatal(err)
	}
	factorySite, err := f.AddSite("factory", SiteConfig{
		Deployment:     dF,
		MonitorFactory: func(d *Deployment) (*Monitor, error) { return NewMonitor(d, nil) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if factorySite.Monitor() == nil {
		t.Fatal("factory did not build the initial monitor")
	}
	if !factorySite.park() {
		t.Fatal("factory-monitored site refused to park")
	}
	d2, mon2, err := factorySite.Hydrate()
	if err != nil {
		t.Fatal(err)
	}
	if d2 == dF {
		t.Fatal("rehydration returned the parked deployment instead of re-materializing")
	}
	if mon2 == nil {
		t.Fatal("rehydration did not rebuild the monitor")
	}
	if err := mon2.Observe(make([]float64, replicaGeometry.Links)); err != nil {
		t.Fatalf("rebuilt monitor rejects observations: %v", err)
	}
}

// TestFleetHydrateHotPathZeroAlloc: on a hydrated site the query path —
// Hydrate plus the snapshot read — must not allocate; the LRU touch is
// two atomic integer ops.
func TestFleetHydrateHotPathZeroAlloc(t *testing.T) {
	f := NewFleet(WithResidentLimit(4))
	defer f.Close()
	site, _ := addMemorySite(t, f, "hot", 1, 2)
	if allocs := testing.AllocsPerRun(1000, func() {
		d, _, err := site.Hydrate()
		if err != nil {
			t.Fatal(err)
		}
		if d.Snapshot().Version() != 2 {
			t.Fatal("wrong version")
		}
	}); allocs != 0 {
		t.Fatalf("hydrated hot path allocates %.1f/op, want 0", allocs)
	}
}

// TestFleetLRUHammer300Sites registers a 300-site fleet over in-memory
// store backends with a 32-site resident budget and hammers it with a
// mixed workload under -race: a hot set served lock-free, a rotating
// cold scan forcing continuous evict/rehydrate churn, lifecycle churn
// (AddSite/RemoveSite) racing it all, and dashboard readers
// (Summaries/Stats) scraping throughout. Afterwards every surviving
// site must rehydrate to bit-identical fingerprints and the resident
// count must respect the budget.
func TestFleetLRUHammer300Sites(t *testing.T) {
	if testing.Short() {
		t.Skip("300-site hammer is not a -short test")
	}
	const (
		sites    = 300
		limit    = 32
		hotSet   = 8
		readers  = 4
		coldScan = 4
	)
	f := NewFleet(WithResidentLimit(limit))
	defer f.Close()

	handles := make([]*Site, sites)
	want := make([]Matrix, sites)
	for i := 0; i < sites; i++ {
		handles[i], want[i] = addMemorySite(t, f, fmt.Sprintf("site-%03d", i), i+1, 2+i%3)
	}
	if got := f.Stats(); got.Resident > limit {
		t.Fatalf("resident %d after registration, limit %d", got.Resident, limit)
	}

	probe := replicaMatrix(1).Col(0) // any link-length vector localizes
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, readers+coldScan+3)

	// Hot readers: pinned to the hot set, expecting the lock-free path.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				s := handles[(r+i)%hotSet]
				d, _, err := s.Hydrate()
				if err != nil {
					errc <- fmt.Errorf("hot %s: %w", s.Name(), err)
					return
				}
				p, err := d.Snapshot().Locate(probe)
				if err != nil {
					errc <- fmt.Errorf("hot %s: %w", s.Name(), err)
					return
				}
				if math.IsNaN(p.X) || math.IsNaN(p.Y) {
					errc <- fmt.Errorf("hot %s: NaN estimate", s.Name())
					return
				}
			}
		}(r)
	}
	// Cold scans: strided walks over the long tail, every hit likely a
	// rehydration that evicts someone else mid-locate.
	for c := 0; c < coldScan; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				idx := hotSet + (c*61+i*97)%(sites-hotSet)
				s := handles[idx]
				d, _, err := s.Hydrate()
				if err != nil {
					errc <- fmt.Errorf("cold %s: %w", s.Name(), err)
					return
				}
				if _, err := d.Snapshot().Locate(probe); err != nil {
					errc <- fmt.Errorf("cold %s: %w", s.Name(), err)
					return
				}
			}
		}(c)
	}
	// Lifecycle churn racing the scans: transient sites come and go.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			name := fmt.Sprintf("churn-%d", i%4)
			st, err := OpenStore("", WithBackend(NewMemoryBackend()), WithoutSync())
			if err != nil {
				errc <- err
				return
			}
			d, err := NewDeployment(replicaMatrix(1000+i), replicaGeometry, WithStore(st))
			if err != nil {
				errc <- err
				return
			}
			if _, err := f.AddSite(name, SiteConfig{Deployment: d}); err != nil {
				errc <- err
				return
			}
			if err := f.RemoveSite(name); err != nil {
				errc <- err
				return
			}
		}
	}()
	// Dashboard readers: Summaries and Stats must stay consistent and
	// never rehydrate parked sites.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			resident := 0
			for _, sum := range f.Summaries() {
				if sum.Hydrated {
					resident++
				}
				if sum.Version == 0 && sum.Replica == nil && sum.Durable {
					errc <- fmt.Errorf("%s: durable summary lost its version", sum.Name)
					return
				}
			}
			_ = f.Stats()
		}
	}()

	time.Sleep(500 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	stats := f.Stats()
	if stats.Resident > limit {
		t.Errorf("resident %d at quiescence exceeds limit %d", stats.Resident, limit)
	}
	if stats.Evictions == 0 || stats.Rehydrations == 0 {
		t.Errorf("hammer exercised no LRU churn: %+v", stats)
	}
	// Every site — parked or resident — rehydrates to the exact
	// fingerprints it published, through whatever delta chain its store
	// holds.
	for i, s := range handles {
		d, _, err := s.Hydrate()
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !matricesEqual(d.Snapshot().Fingerprints(), want[i]) {
			t.Fatalf("%s: fingerprints diverged after LRU churn", s.Name())
		}
	}
	if got := f.Stats(); got.Resident > limit {
		t.Errorf("resident %d after verification sweep, limit %d", got.Resident, limit)
	}
}
