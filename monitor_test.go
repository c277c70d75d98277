package iupdater

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"iupdater/internal/trace"
)

// scriptedDetector flags according to a caller-controlled schedule.
type scriptedDetector struct {
	flag   bool
	resets int
}

func (d *scriptedDetector) Observe(float64) bool { return d.flag }
func (d *scriptedDetector) Score() float64 {
	if d.flag {
		return 2
	}
	return 0
}
func (d *scriptedDetector) Reset() { d.resets++ }

// monitorFixture deploys a small office testbed and returns query
// vectors measured at the given elapsed time.
func monitorFixture(t testing.TB, seed uint64, opts ...Option) (*Testbed, *Deployment, func(q int, at time.Duration) []float64) {
	t.Helper()
	tb := NewTestbed(Office(), seed)
	d, _, err := tb.Deploy(0, 20, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	query := func(q int, at time.Duration) []float64 {
		cell := rng.Intn(tb.NumCells())
		x, y := tb.CellCenter(cell)
		x += (rng.Float64()*2 - 1) * 0.2
		y += (rng.Float64()*2 - 1) * 0.2
		return tb.MeasureOnline(x, y, at+time.Duration(q)*500*time.Millisecond)
	}
	return tb, d, query
}

func TestMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(nil, nil); err == nil {
		t.Fatal("nil deployment accepted")
	}
	_, d, _ := monitorFixture(t, 1)
	m, err := NewMonitor(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Observe([]float64{1, 2}); err == nil {
		t.Error("short measurement accepted")
	}
	m.Close()
	if err := m.Observe(make([]float64, d.Geometry().Links)); err == nil {
		t.Error("Observe after Close accepted")
	}
}

func TestMonitorHysteresisAndDetectionCounting(t *testing.T) {
	_, d, query := monitorFixture(t, 1)
	det := &scriptedDetector{}
	m, err := NewMonitor(d, nil, WithDriftDetector(det), WithDriftHysteresis(3))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	observe := func(n int) {
		for i := 0; i < n; i++ {
			if err := m.Observe(query(i, time.Hour)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Two flags then a gap: below hysteresis, no detection.
	det.flag = true
	observe(2)
	det.flag = false
	observe(1)
	if s := m.Stats(); s.Detections != 0 {
		t.Fatalf("detections %d after sub-hysteresis flags", s.Detections)
	}
	// A sustained episode counts exactly one detection, however long.
	det.flag = true
	observe(10)
	if s := m.Stats(); s.Detections != 1 {
		t.Fatalf("detections %d after one sustained episode, want 1", s.Detections)
	}
	// With no sampler the detection is suppressed, not acted on.
	if s := m.Stats(); s.Suppressed != 1 || s.UpdatesTriggered != 0 {
		t.Fatalf("stats %+v: want 1 suppressed, 0 triggered", s)
	}
	// A new episode after the signal clears counts again.
	det.flag = false
	observe(1)
	det.flag = true
	observe(3)
	if s := m.Stats(); s.Detections != 2 {
		t.Fatalf("detections %d after second episode, want 2", s.Detections)
	}
}

func TestMonitorTriggersUpdateAndCooldown(t *testing.T) {
	tb, d, query := monitorFixture(t, 1)
	det := &scriptedDetector{}
	var clock time.Duration = 45 * 24 * time.Hour
	sampler := tb.Sampler(func() time.Duration { return clock })
	m, err := NewMonitor(d, sampler,
		WithDriftDetector(det),
		WithDriftHysteresis(2),
		WithUpdateCooldown(50),
		WithSynchronousUpdates())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	det.flag = true
	for i := 0; i < 2; i++ {
		if err := m.Observe(query(i, clock)); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Stats()
	if s.UpdatesTriggered != 1 || s.UpdatesCompleted != 1 || s.UpdateErrors != 0 {
		t.Fatalf("after detection: %+v", s)
	}
	if s.SnapshotVersion != 2 {
		t.Fatalf("snapshot version %d after auto-update, want 2", s.SnapshotVersion)
	}
	if s.CooldownRemaining != 50 {
		t.Fatalf("cooldown %d, want 50", s.CooldownRemaining)
	}
	if det.resets == 0 {
		t.Fatal("detector not re-calibrated after the published update")
	}

	// Keep flagging through the cooldown: the new episode is detected
	// and suppressed, with no second update.
	for i := 0; i < 40; i++ {
		if err := m.Observe(query(100+i, clock)); err != nil {
			t.Fatal(err)
		}
	}
	s = m.Stats()
	if s.UpdatesTriggered != 1 {
		t.Fatalf("updates triggered %d during cooldown, want 1", s.UpdatesTriggered)
	}
	if s.Suppressed == 0 {
		t.Fatal("no suppressed detection recorded during cooldown")
	}
	// Once the cooldown expires, a persisting episode triggers again.
	for i := 0; i < 30; i++ {
		if err := m.Observe(query(200+i, clock)); err != nil {
			t.Fatal(err)
		}
	}
	s = m.Stats()
	if s.UpdatesTriggered != 2 || s.SnapshotVersion != 3 {
		t.Fatalf("after cooldown expiry: %+v", s)
	}
}

func TestMonitorAsyncUpdateCompletes(t *testing.T) {
	tb, d, query := monitorFixture(t, 1)
	det := &scriptedDetector{}
	var mu sync.Mutex
	clock := 45 * 24 * time.Hour
	sampler := SamplerFunc(func(refs []int) (UpdateInputs, error) {
		// Serialize testbed access: the monitor samples from its update
		// goroutine while the test keeps observing.
		mu.Lock()
		defer mu.Unlock()
		xr, _ := tb.ReferenceMatrix(clock, refs)
		return UpdateInputs{NoDecrease: tb.NoDecreaseMatrix(clock), Known: tb.Mask(), References: xr}, nil
	})
	m, err := NewMonitor(d, sampler, WithDriftDetector(det), WithDriftHysteresis(2))
	if err != nil {
		t.Fatal(err)
	}

	det.flag = true
	queries := make([][]float64, 8)
	for i := range queries {
		mu.Lock()
		queries[i] = query(i, clock)
		mu.Unlock()
	}
	for _, q := range queries {
		if err := m.Observe(q); err != nil {
			t.Fatal(err)
		}
	}
	if s := m.Stats(); s.UpdatesTriggered != 1 {
		t.Fatalf("updates triggered %d, want 1", s.UpdatesTriggered)
	}
	m.Close() // waits for the in-flight update
	s := m.Stats()
	if s.UpdatesCompleted != 1 || s.UpdateErrors != 0 {
		t.Fatalf("after Close: %+v", s)
	}
	if v := d.Version(); v != 2 {
		t.Fatalf("deployment version %d after async auto-update, want 2", v)
	}
}

func TestMonitorRecordsSamplerErrors(t *testing.T) {
	_, d, query := monitorFixture(t, 1)
	det := &scriptedDetector{}
	boom := fmt.Errorf("radio frontend offline")
	sampler := SamplerFunc(func([]int) (UpdateInputs, error) { return UpdateInputs{}, boom })
	m, err := NewMonitor(d, sampler,
		WithDriftDetector(det), WithDriftHysteresis(1), WithSynchronousUpdates())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	det.flag = true
	if err := m.Observe(query(0, time.Hour)); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.UpdateErrors != 1 || s.UpdatesCompleted != 0 {
		t.Fatalf("stats %+v: want 1 update error", s)
	}
	if s.LastError == "" {
		t.Fatal("LastError empty after failed update")
	}
	if d.Version() != 1 {
		t.Fatal("failed update must not publish")
	}
}

func TestMatrixSampler(t *testing.T) {
	var s MatrixSampler
	if _, err := s.SampleReferences([]int{1, 2}); err == nil {
		t.Fatal("empty MatrixSampler sampled successfully")
	}
	refM, _ := NewMatrix(2, 3)
	nd, _ := NewMatrix(2, 6)
	mask, _ := MaskFromRows([][]bool{{true, false, true, true, false, true}, {true, true, false, true, true, false}})
	s.Store(UpdateInputs{NoDecrease: nd, Known: mask, References: refM})
	if _, err := s.SampleReferences([]int{1, 2}); err == nil {
		t.Fatal("reference-count mismatch accepted")
	}
	in, err := s.SampleReferences([]int{0, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if in.References.Cols() != 3 {
		t.Fatalf("got %d reference columns", in.References.Cols())
	}
}

// TestMonitorObserveAllocBudget enforces the steady-state allocation
// budget of the observe path: at most 2 allocs per observed query (the
// measured value is 0 — residual scan, detector and counters all run on
// preallocated state).
func TestMonitorObserveAllocBudget(t *testing.T) {
	_, d, query := monitorFixture(t, 1)
	m, err := NewMonitor(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Warm past calibration so the steady-state path is measured.
	queries := make([][]float64, 512)
	for i := range queries {
		queries[i] = query(i, time.Hour)
	}
	for _, q := range queries {
		if err := m.Observe(q); err != nil {
			t.Fatal(err)
		}
	}
	var i int
	if allocs := testing.AllocsPerRun(400, func() {
		m.Observe(queries[i&511])
		i++
	}); allocs > 2 {
		t.Errorf("Observe allocates %.1f per query in steady state, budget is 2", allocs)
	}
}

// TestInstrumentedHotPathsAllocFree pins the observability cost of the
// query path at zero: Locate (timing every call into the latency
// histogram) and Monitor.Observe (folding per-link attribution into the
// EWMA tracker) must stay allocation-free in steady state — with a
// tracer attached. Every query records a full span tree into pooled
// scratch; as long as the trace is not retained (no head sampling, no
// slow threshold hit), the scratch goes straight back to the pool.
func TestInstrumentedHotPathsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop items, so pooled paths allocate")
	}
	tracer := trace.New(trace.Config{DefaultSlow: -1})
	_, d, query := monitorFixture(t, 1, WithTracer(tracer, "hot"))
	m, err := NewMonitor(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	queries := make([][]float64, 512)
	for i := range queries {
		queries[i] = query(i, time.Hour)
	}
	// Warm both paths past calibration and scratch-pool setup.
	for _, q := range queries {
		if _, err := d.Locate(q); err != nil {
			t.Fatal(err)
		}
		if err := m.Observe(q); err != nil {
			t.Fatal(err)
		}
	}
	var i int
	if allocs := testing.AllocsPerRun(400, func() {
		d.Locate(queries[i&511])
		i++
	}); allocs > 0 {
		t.Errorf("instrumented Locate allocates %.1f per query, want 0", allocs)
	}
	i = 0
	if allocs := testing.AllocsPerRun(400, func() {
		m.Observe(queries[i&511])
		i++
	}); allocs > 0 {
		t.Errorf("instrumented Observe allocates %.1f per query, want 0", allocs)
	}
	if n := d.LocateLatency().Snapshot().Count; n == 0 {
		t.Error("latency histogram observed nothing")
	}
	// The zero-alloc result must not come from tracing being bypassed:
	// every query above started (and discarded) a trace.
	if st := tracer.Stats(); st.Started == 0 {
		t.Error("tracer saw no traces: the hot paths bypassed tracing")
	} else if st.Retained != 0 {
		t.Errorf("%d traces retained; the unsampled path should discard all", st.Retained)
	}
}

// baselineScripted is a scriptedDetector that also carries a calibrated
// baseline, so tests can steer the adaptive cooldown's excess term.
type baselineScripted struct {
	scriptedDetector
	mu, sigma float64
	ok        bool
}

func (d *baselineScripted) Baseline() (float64, float64, bool) { return d.mu, d.sigma, d.ok }
func (d *baselineScripted) SetBaseline(mu, sigma float64)      { d.mu, d.sigma, d.ok = mu, sigma, true }

func TestMonitorAdaptiveCooldown(t *testing.T) {
	trigger := func(t *testing.T, det DriftDetector, opts ...MonitorOption) MonitorStats {
		t.Helper()
		tb, d, query := monitorFixture(t, 1)
		clock := 45 * 24 * time.Hour
		sampler := tb.Sampler(func() time.Duration { return clock })
		opts = append([]MonitorOption{
			WithDriftDetector(det),
			WithDriftHysteresis(2),
			WithSynchronousUpdates(),
		}, opts...)
		m, err := NewMonitor(d, sampler, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		for i := 0; i < 2; i++ {
			if err := m.Observe(query(i, clock)); err != nil {
				t.Fatal(err)
			}
		}
		s := m.Stats()
		if s.UpdatesTriggered != 1 {
			t.Fatalf("updates triggered %d, want 1 (%+v)", s.UpdatesTriggered, s)
		}
		return s
	}

	t.Run("mild drift waits the ceiling", func(t *testing.T) {
		// Baseline mean far above any real residual: excess clamps to 0.
		det := &baselineScripted{mu: 1e6, sigma: 1, ok: true}
		det.flag = true
		s := trigger(t, det, WithAdaptiveCooldown(20, 200, 1))
		if s.CooldownRemaining != 200 {
			t.Fatalf("cooldown %d, want the 200 ceiling", s.CooldownRemaining)
		}
	})
	t.Run("violent drift shrinks to the floor", func(t *testing.T) {
		// Baseline mean far below the residual with a tiny sigma: the
		// excess is enormous, so the cooldown clamps to the floor.
		det := &baselineScripted{mu: -1e6, sigma: 1e-3, ok: true}
		det.flag = true
		s := trigger(t, det, WithAdaptiveCooldown(20, 200, 1))
		if s.CooldownRemaining != 20 {
			t.Fatalf("cooldown %d, want the 20 floor", s.CooldownRemaining)
		}
	})
	t.Run("no baseline waits the ceiling", func(t *testing.T) {
		det := &scriptedDetector{flag: true}
		s := trigger(t, det, WithAdaptiveCooldown(20, 200, 1))
		if s.CooldownRemaining != 200 {
			t.Fatalf("cooldown %d, want the 200 ceiling", s.CooldownRemaining)
		}
	})
	t.Run("WithUpdateCooldown restores the fixed policy", func(t *testing.T) {
		det := &baselineScripted{mu: -1e6, sigma: 1e-3, ok: true}
		det.flag = true
		s := trigger(t, det, WithUpdateCooldown(77))
		if s.CooldownRemaining != 77 {
			t.Fatalf("cooldown %d, want the fixed 77", s.CooldownRemaining)
		}
	})
}

func TestMonitorStatsTopLinks(t *testing.T) {
	_, d, query := monitorFixture(t, 1)
	m, err := NewMonitor(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if s := m.Stats(); len(s.TopLinks) != 0 {
		t.Fatalf("TopLinks before any observation: %v", s.TopLinks)
	}
	for i := 0; i < 64; i++ {
		if err := m.Observe(query(i, time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Stats()
	links := d.Geometry().Links
	wantK := 3
	if links < wantK {
		wantK = links
	}
	if len(s.TopLinks) != wantK {
		t.Fatalf("TopLinks %v, want %d entries", s.TopLinks, wantK)
	}
	seen := map[int]bool{}
	for i, ld := range s.TopLinks {
		if ld.Link < 0 || ld.Link >= links || seen[ld.Link] {
			t.Fatalf("bad/duplicate link in %v", s.TopLinks)
		}
		seen[ld.Link] = true
		if ld.ErrDB < 0 {
			t.Fatalf("negative attributed error in %v", s.TopLinks)
		}
		if i > 0 && s.TopLinks[i-1].ErrDB < ld.ErrDB {
			t.Fatalf("TopLinks not descending: %v", s.TopLinks)
		}
	}
	// The allocation-free accessor agrees with the Stats view.
	outL := make([]int, wantK)
	outE := make([]float64, wantK)
	if n := m.TopLinksInto(outL, outE); n != wantK {
		t.Fatalf("TopLinksInto filled %d, want %d", n, wantK)
	}
	for i := 0; i < wantK; i++ {
		if outL[i] != s.TopLinks[i].Link {
			t.Fatalf("TopLinksInto %v disagrees with Stats %v", outL, s.TopLinks)
		}
	}
}

func TestMonitorConcurrentObserve(t *testing.T) {
	// Observe must be safe under concurrent callers (the serve mode
	// feeds it from HTTP handler goroutines).
	_, d, query := monitorFixture(t, 1)
	m, err := NewMonitor(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float64, 64)
	for i := range queries {
		queries[i] = query(i, time.Hour)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Observe(queries[(w*131+i)&63])
			}
		}(w)
	}
	wg.Wait()
	if s := m.Stats(); s.Queries != 2000 {
		t.Fatalf("queries %d, want 2000", s.Queries)
	}
	m.Close()
}

// TestImplausibleReadingsAreTypedErrors: NaN, ±Inf and readings outside
// the plausible dBm range (1e160 squares to +Inf in the residual) are
// refused with a *ReadingError by every locate entry point and by
// Monitor.Observe, and never reach the monitor's counters.
func TestImplausibleReadingsAreTypedErrors(t *testing.T) {
	tb := NewTestbed(Office(), 1)
	d, _, err := tb.Deploy(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	cx, cy := tb.CellCenter(42)
	good := tb.MeasureOnline(cx, cy, time.Hour)
	snap := d.Snapshot()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e160, -1e200, MaxReadingDBm + 1, MinReadingDBm - 1} {
		rss := append([]float64(nil), good...)
		rss[2] = bad
		calls := map[string]error{"Observe": mon.Observe(rss)}
		_, calls["Locate"] = d.Locate(rss)
		_, calls["LocateCell"] = snap.LocateCell(rss)
		_, _, calls["LocateWithStats"] = snap.LocateWithStats(rss)
		_, calls["LocateMultiple"] = snap.LocateMultiple(rss, 2)
		_, calls["LocateBatch"] = snap.LocateBatch(context.Background(), [][]float64{good, rss}, 1)
		for name, err := range calls {
			var re *ReadingError
			if !errors.As(err, &re) || re.Link != 2 || !(re.Value == bad || math.IsNaN(bad)) {
				t.Errorf("%s with reading %g: error %v, want a *ReadingError for link 2", name, bad, err)
			}
		}
	}
	if q := mon.Stats().Queries; q != 0 {
		t.Fatalf("monitor counted %d queries, want 0", q)
	}
	for _, edge := range []float64{MinReadingDBm, MaxReadingDBm} {
		rss := append([]float64(nil), good...)
		rss[2] = edge
		if _, err := d.Locate(rss); err != nil {
			t.Errorf("reading %g dBm on the range edge: %v", edge, err)
		}
		if err := mon.Observe(rss); err != nil {
			t.Errorf("Observe with reading %g dBm: %v", edge, err)
		}
	}
}
