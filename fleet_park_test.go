package iupdater

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// countingBackend wraps a Backend and counts the calls that change it:
// file creations, file writes and truncations, syncs (of files and of
// the namespace) and renames. With fail set, each of them fails with
// that error instead.
type countingBackend struct {
	Backend

	mu     sync.Mutex
	counts backendCounts
	fail   error
}

// backendCounts is a countingBackend's tally.
type backendCounts struct {
	creates, writes, syncs, renames int
}

func newCountingBackend() *countingBackend {
	return &countingBackend{Backend: NewMemoryBackend()}
}

// op counts one call in *n and reports the injected failure, if any.
func (b *countingBackend) op(n *int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	*n++
	return b.fail
}

func (b *countingBackend) Counts() backendCounts {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.counts
}

func (b *countingBackend) setFail(err error) {
	b.mu.Lock()
	b.fail = err
	b.mu.Unlock()
}

func (b *countingBackend) Open(name string) (BackendFile, error) {
	f, err := b.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	return countingFile{BackendFile: f, b: b}, nil
}

func (b *countingBackend) Create(name string) (BackendFile, error) {
	if err := b.op(&b.counts.creates); err != nil {
		return nil, err
	}
	f, err := b.Backend.Create(name)
	if err != nil {
		return nil, err
	}
	return countingFile{BackendFile: f, b: b}, nil
}

func (b *countingBackend) Rename(oldname, newname string) error {
	if err := b.op(&b.counts.renames); err != nil {
		return err
	}
	return b.Backend.Rename(oldname, newname)
}

func (b *countingBackend) Sync() error {
	if err := b.op(&b.counts.syncs); err != nil {
		return err
	}
	return b.Backend.Sync()
}

type countingFile struct {
	BackendFile
	b *countingBackend
}

func (f countingFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.b.op(&f.b.counts.writes); err != nil {
		return 0, err
	}
	return f.BackendFile.WriteAt(p, off)
}

func (f countingFile) Truncate(size int64) error {
	if err := f.b.op(&f.b.counts.writes); err != nil {
		return err
	}
	return f.BackendFile.Truncate(size)
}

func (f countingFile) Sync() error {
	if err := f.b.op(&f.b.counts.syncs); err != nil {
		return err
	}
	return f.BackendFile.Sync()
}

// parkCalibration is the calibration window of the parking tests'
// detectors.
const parkCalibration = 60

// newParkMonitor is the parking tests' MonitorFactory: detect-only, with
// a mean-shift detector calibrated over parkCalibration queries.
func newParkMonitor(d *Deployment) (*Monitor, error) {
	return NewMonitor(d, nil, WithDriftDetector(NewMeanShiftDetector(parkCalibration, 16, 3)), WithDriftHysteresis(2))
}

// addMonitoredSite registers a durable office site surveyed at day 0
// over backend b, monitored through newParkMonitor so the fleet can park
// it.
func addMonitoredSite(t *testing.T, f *Fleet, name string, seed uint64, b Backend) (*Site, *Testbed) {
	t.Helper()
	st, err := OpenStore("", WithBackend(b))
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTestbed(Office(), seed)
	d, _, err := tb.Deploy(0, 20, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	site, err := f.AddSite(name, SiteConfig{Deployment: d, MonitorFactory: newParkMonitor})
	if err != nil {
		t.Fatal(err)
	}
	return site, tb
}

// observeStationary hydrates the site and feeds its monitor n queries of
// the day-0 environment, numbered from q0.
func observeStationary(t *testing.T, site *Site, tb *Testbed, q0, n int) {
	t.Helper()
	for q := q0; q < q0+n; q++ {
		_, mon, err := site.Hydrate()
		if err != nil {
			t.Fatal(err)
		}
		cx, cy := tb.CellCenter((q * 7) % tb.NumCells())
		if err := mon.Observe(tb.MeasureOnline(cx, cy, time.Hour+time.Duration(q)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
}

// detectsWithinCalibration feeds mon a stream from 45 days later and
// reports the query at which it declared drift, -1 if it never did
// within twice the calibration window. A monitor that kept its
// calibrated floor detects well inside one window; one that lost it
// spends the window learning the drifted stream as its floor.
func detectsWithinCalibration(t *testing.T, mon *Monitor, tb *Testbed) int {
	t.Helper()
	for q := 0; q < 2*parkCalibration; q++ {
		cx, cy := tb.CellCenter((q * 5) % tb.NumCells())
		if err := mon.Observe(tb.MeasureOnline(cx, cy, 45*day+time.Duration(q)*time.Second)); err != nil {
			t.Fatal(err)
		}
		if mon.Stats().Detections > 0 {
			return q
		}
	}
	return -1
}

// TestFleetParkWritesNothing: park/rehydrate cycles of a calibrated,
// monitored site make no creates, writes, syncs or renames on its
// backend, and the monitor comes back with its counters and calibrated
// floor — also after a rehydration that served no query (a snapshot or
// drift read) before the site parked again.
func TestFleetParkWritesNothing(t *testing.T) {
	f := NewFleet(WithResidentLimit(1))
	defer f.Close()
	bA, bB := newCountingBackend(), newCountingBackend()
	siteA, tbA := addMonitoredSite(t, f, "a", 3, bA)
	const served = 150
	observeStationary(t, siteA, tbA, 0, served)
	siteB, tbB := addMonitoredSite(t, f, "b", 4, bB)
	if siteA.Hydrated() {
		t.Fatal("site a not parked past the resident limit")
	}
	before := bA.Counts()
	beforeB := bB.Counts()

	const cycles = 8
	queries := uint64(served)
	for c := 0; c < cycles; c++ {
		if c%2 == 0 {
			observeStationary(t, siteA, tbA, served+c, 1)
			queries++
		} else if _, _, err := siteA.Hydrate(); err != nil {
			t.Fatal(err)
		}
		// Fewer queries than b's calibration window, so b never writes
		// its floor either.
		observeStationary(t, siteB, tbB, c, 1)
	}
	if st := f.Stats(); st.Rehydrations < 2*cycles {
		t.Fatalf("%d rehydrations over %d cycles, want >= %d", st.Rehydrations, cycles, 2*cycles)
	}
	if got := bA.Counts(); got != before {
		t.Errorf("park/rehydrate cycles wrote to site a's backend: %+v, before %+v", got, before)
	}
	if got := bB.Counts(); got != beforeB {
		t.Errorf("park/rehydrate cycles wrote to site b's backend: %+v, before %+v", got, beforeB)
	}

	_, mon, err := siteA.Hydrate()
	if err != nil {
		t.Fatal(err)
	}
	if s := mon.Stats(); s.Queries != queries {
		t.Fatalf("site a's monitor at %d queries after parking, want %d", s.Queries, queries)
	}
	if at := detectsWithinCalibration(t, mon, tbA); at < 0 || at >= parkCalibration {
		t.Fatalf("drift detected at query %d after parking, want within the %d-query calibration window: the floor did not survive", at, parkCalibration)
	}
}

// TestFleetCrashAfterParkKeepsFloor: parking writes nothing, so a crash
// between park and Close loses the counters since the last durable save
// — never the calibrated floor, which was written when calibration
// completed. The fleet is abandoned without Close and the site's store
// reopened over the same backend, as a restarted process would.
func TestFleetCrashAfterParkKeepsFloor(t *testing.T) {
	f := NewFleet(WithResidentLimit(1))
	defer f.Close()
	bA := newCountingBackend()
	siteA, tbA := addMonitoredSite(t, f, "a", 3, bA)
	before := bA.Counts()
	observeStationary(t, siteA, tbA, 0, parkCalibration)
	if got := bA.Counts(); got.renames != before.renames+1 {
		t.Fatalf("completing calibration made %d renames, want the one state save", got.renames-before.renames)
	}
	durable := siteA.Monitor().Stats().Queries
	observeStationary(t, siteA, tbA, parkCalibration, 90)
	addMonitoredSite(t, f, "b", 4, newCountingBackend())
	if siteA.Hydrated() {
		t.Fatal("site a not parked past the resident limit")
	}

	st, err := OpenStore("", WithBackend(bA))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d, err := OpenDeployment(st)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := newParkMonitor(d)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if s := mon.Stats(); s.Queries != durable {
		t.Fatalf("restarted monitor at %d queries, want the last durable save's %d", s.Queries, durable)
	}
	if at := detectsWithinCalibration(t, mon, tbA); at < 0 || at >= parkCalibration {
		t.Fatalf("drift detected at query %d after the crash, want within the %d-query calibration window: the floor was lost", at, parkCalibration)
	}
}

var errInjectedState = errors.New("injected state write failure")

// TestFleetShutdownWritesParkedStateOnce: RemoveSite and Close write
// each site's final monitor state exactly once — a parked site's from
// memory, a resident one's from its live monitor — and a site whose
// write fails reports the error from Close by name while the others
// still close.
func TestFleetShutdownWritesParkedStateOnce(t *testing.T) {
	f := NewFleet(WithResidentLimit(1))
	names := []string{"a", "b", "c", "d"}
	backends := make(map[string]*countingBackend, len(names))
	for i, name := range names {
		backends[name] = newCountingBackend()
		site, tb := addMonitoredSite(t, f, name, uint64(i+1), backends[name])
		observeStationary(t, site, tb, 0, 5)
	}
	for _, name := range names[:3] {
		if site, _ := f.Site(name); site.Hydrated() {
			t.Fatalf("site %s still resident past the limit", name)
		}
	}
	before := make(map[string]backendCounts, len(names))
	for name, b := range backends {
		before[name] = b.Counts()
	}
	// resumedQueries reopens a site's backend as a restart would and
	// returns the query count its monitor resumes at. The monitor is
	// left open: closing it would write its state again.
	resumedQueries := func(name string) uint64 {
		t.Helper()
		st, err := OpenStore("", WithBackend(backends[name]))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		d, err := OpenDeployment(st)
		if err != nil {
			t.Fatal(err)
		}
		mon, err := newParkMonitor(d)
		if err != nil {
			t.Fatal(err)
		}
		return mon.Stats().Queries
	}
	wroteOnce := func(name string) {
		t.Helper()
		got, was := backends[name].Counts(), before[name]
		if got.creates != was.creates+1 || got.renames != was.renames+1 {
			t.Errorf("site %s: %d creates and %d renames on shutdown, want one state write", name, got.creates-was.creates, got.renames-was.renames)
		}
		if q := resumedQueries(name); q != 5 {
			t.Errorf("site %s resumes at %d queries, want 5", name, q)
		}
	}

	if err := f.RemoveSite("a"); err != nil {
		t.Fatal(err)
	}
	wroteOnce("a")

	backends["b"].setFail(errInjectedState)
	err := f.Close()
	if !errors.Is(err, errInjectedState) {
		t.Fatalf("Close returned %v, want the injected state write failure", err)
	}
	if !strings.Contains(err.Error(), "site b") {
		t.Errorf("close error %v does not name site b", err)
	}
	backends["b"].setFail(nil)
	for _, name := range []string{"c", "d"} {
		wroteOnce(name)
	}
	if err := f.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	for _, name := range []string{"a", "c", "d"} {
		if got := backends[name].Counts(); got.creates != before[name].creates+1 {
			t.Errorf("site %s: %d creates after a second Close, want one state write in total", name, got.creates-before[name].creates)
		}
	}
}
