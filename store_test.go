package iupdater

import (
	"strings"
	"testing"
	"time"
)

// updateAt runs one testbed-driven Update at the given deployment age.
func updateAt(t *testing.T, d *Deployment, tb *Testbed, at time.Duration) *Snapshot {
	t.Helper()
	refs, err := d.ReferenceLocations()
	if err != nil {
		t.Fatal(err)
	}
	cols, _ := tb.ReferenceMatrix(at, refs)
	snap, err := d.Update(tb.NoDecreaseMatrix(at), tb.Mask(), cols)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func matricesEqual(a, b Matrix) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if a.At(i, j) != b.At(i, j) {
				return false
			}
		}
	}
	return true
}

// TestStoreRestartRoundTrip is the kill-and-restart durability proof:
// publish through a store, reopen the directory as a fresh process
// would, and demand bit-identical localization from the warm-started
// deployment.
func TestStoreRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTestbed(Office(), 1)
	d, _, err := tb.Deploy(0, 20, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if d.Store() != st {
		t.Fatal("Store() does not return the attached store")
	}
	snap := updateAt(t, d, tb, 30*day)
	if snap.Version() != 2 {
		t.Fatalf("post-update version %d, want 2", snap.Version())
	}
	// Tack a delta chain onto the tail: two publishes that each tweak a
	// handful of columns persist as delta records, so the restart below
	// has to materialize a chain, not just read back one full record.
	for n := 1; n <= 2; n++ {
		fp := d.Snapshot().Fingerprints()
		for k := 0; k < 5; k++ {
			j := (7*n + k*11) % fp.Cols()
			for i := 0; i < fp.Rows(); i++ {
				fp.Set(i, j, fp.At(i, j)+0.1*float64(n))
			}
		}
		if _, err := d.Install(fp); err != nil {
			t.Fatal(err)
		}
	}
	if v := d.Version(); v != 4 {
		t.Fatalf("post-install version %d, want 4", v)
	}
	recs := st.Records()
	if len(recs) != 4 || recs[2].Kind != "delta" || recs[3].Kind != "delta" {
		t.Fatalf("stored records %+v, want a delta tail at v3 and v4", recs)
	}

	probes := make([][]float64, 5)
	before := make([]Position, len(probes))
	for k := range probes {
		cx, cy := tb.CellCenter((k * 17) % tb.NumCells())
		probes[k] = tb.MeasureOnline(cx, cy, 30*day+time.Duration(k+1)*time.Minute)
		if before[k], err = d.Locate(probes[k]); err != nil {
			t.Fatal(err)
		}
	}
	fpBefore := d.Snapshot().Fingerprints()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh store handle and a fresh deployment, nothing
	// shared with the first life but the directory.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	d2, err := OpenDeployment(st2)
	if err != nil {
		t.Fatal(err)
	}
	if v := d2.Version(); v != 4 {
		t.Fatalf("warm-started version %d, want 4", v)
	}
	if g := d2.Geometry(); g != tb.Geometry() {
		t.Fatalf("warm-started geometry %+v, want %+v", g, tb.Geometry())
	}
	if !matricesEqual(d2.Snapshot().Fingerprints(), fpBefore) {
		t.Fatal("fingerprints differ after restart")
	}
	for k, rss := range probes {
		after, err := d2.Locate(rss)
		if err != nil {
			t.Fatal(err)
		}
		if after != before[k] {
			t.Fatalf("probe %d: position (%v) != pre-restart (%v) — not bit-identical", k, after, before[k])
		}
	}
	// The warm-started deployment keeps publishing into the same store.
	snap5 := updateAt(t, d2, tb, 60*day)
	if snap5.Version() != 5 {
		t.Fatalf("post-restart update version %d, want 5", snap5.Version())
	}
	vs := st2.Versions()
	if len(vs) != 5 || vs[0] != 1 || vs[4] != 5 {
		t.Fatalf("stored versions %v, want [1 2 3 4 5]", vs)
	}
}

// TestStoreDeltaPersistsFewerBytes is the low-cost durability claim on
// the office testbed geometry: a publish in which at most 10% of the
// reference columns changed must hit the disk as a delta record at
// least 5x smaller than a full snapshot record, while reading the
// version back stays bit-exact.
func TestStoreDeltaPersistsFewerBytes(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tb := NewTestbed(Office(), 6)
	d, _, err := tb.Deploy(0, 20, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	// Change 9 of the 96 columns (<= 10%) and republish.
	fp := d.Snapshot().Fingerprints()
	if fp.Cols() != 96 {
		t.Fatalf("office geometry has %d cells, want 96", fp.Cols())
	}
	for k := 0; k < 9; k++ {
		j := k * 10
		for i := 0; i < fp.Rows(); i++ {
			fp.Set(i, j, fp.At(i, j)+0.25)
		}
	}
	if _, err := d.Install(fp); err != nil {
		t.Fatal(err)
	}
	recs := st.Records()
	if len(recs) != 2 {
		t.Fatalf("stored records %+v, want 2", recs)
	}
	if recs[0].Kind != "full" || recs[1].Kind != "delta" {
		t.Fatalf("record kinds %+v, want [full delta]", recs)
	}
	if 5*recs[1].Bytes > recs[0].Bytes {
		t.Errorf("delta record is %d bytes vs %d for the full snapshot: want >= 5x smaller for a <= 10%% column change",
			recs[1].Bytes, recs[0].Bytes)
	}
	// The delta-stored version reads back bit-exactly...
	got, _, err := st.SnapshotAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(got, fp) {
		t.Fatal("delta-stored snapshot did not materialize bit-identically")
	}
	// ...and still does after a reopen recovers the chain from disk.
	dir := st.Dir()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got2, _, err := st2.SnapshotAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(got2, fp) {
		t.Fatal("reopened delta-stored snapshot did not materialize bit-identically")
	}
}

// TestStoreMaxChainDisabledForcesFullRecords: WithMaxChain(0) opts a
// store out of delta encoding entirely.
func TestStoreMaxChainDisabledForcesFullRecords(t *testing.T) {
	st, err := OpenStore(t.TempDir(), WithMaxChain(0))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tb := NewTestbed(Office(), 6)
	d, _, err := tb.Deploy(0, 20, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	fp := d.Snapshot().Fingerprints()
	for i := 0; i < fp.Rows(); i++ {
		fp.Set(i, 3, fp.At(i, 3)+0.5)
	}
	if _, err := d.Install(fp); err != nil {
		t.Fatal(err)
	}
	for _, rec := range st.Records() {
		if rec.Kind != "full" {
			t.Fatalf("record %+v with WithMaxChain(0), want full", rec)
		}
	}
}

func TestRollbackThenUpdateVersionMonotonicity(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tb := NewTestbed(Office(), 2)
	d, _, err := tb.Deploy(0, 20, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	v1fp := d.Snapshot().Fingerprints()
	updateAt(t, d, tb, 30*day)

	snap, err := d.Rollback(1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version() != 3 {
		t.Fatalf("rollback published v%d, want v3 (history is append-only)", snap.Version())
	}
	if !matricesEqual(snap.Fingerprints(), v1fp) {
		t.Fatal("rollback did not restore v1's fingerprints")
	}
	// Updates after a rollback keep the version line monotonic.
	snap4 := updateAt(t, d, tb, 45*day)
	if snap4.Version() != 4 {
		t.Fatalf("post-rollback update version %d, want 4", snap4.Version())
	}
	vs := st.Versions()
	want := []uint64{1, 2, 3, 4}
	if len(vs) != len(want) {
		t.Fatalf("stored versions %v, want %v", vs, want)
	}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("stored versions %v, want %v", vs, want)
		}
	}
	// A version that never existed is a clean error.
	if _, err := d.Rollback(99); err == nil {
		t.Error("Rollback(99) should fail")
	}
}

func TestRollbackRequiresStore(t *testing.T) {
	tb := NewTestbed(Office(), 1)
	d, _, err := tb.Deploy(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Rollback(1); err == nil || !strings.Contains(err.Error(), "store") {
		t.Fatalf("Rollback without a store: %v", err)
	}
}

func TestNewDeploymentContinuesStoreVersions(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTestbed(Office(), 1)
	d, _, err := tb.Deploy(0, 20, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	updateAt(t, d, tb, 20*day)
	st.Close()

	// A fresh full survey over the same store (a new deployment life)
	// must not rewind the version line.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	d2, _, err := tb.Deploy(0, 20, WithStore(st2))
	if err != nil {
		t.Fatal(err)
	}
	if v := d2.Version(); v != 3 {
		t.Fatalf("re-survey over existing history published v%d, want v3", v)
	}
}

func TestStoreRetentionLimitsRollback(t *testing.T) {
	st, err := OpenStore(t.TempDir(), WithRetention(2))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tb := NewTestbed(Office(), 1)
	d, _, err := tb.Deploy(0, 20, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 4; k++ {
		updateAt(t, d, tb, time.Duration(k)*10*day)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	vs := st.Versions()
	if len(vs) != 2 || vs[1] != 5 {
		t.Fatalf("retained versions %v, want the newest 2 of 5", vs)
	}
	if _, err := d.Rollback(1); err == nil {
		t.Error("Rollback to a compacted-away version should fail")
	}
	if _, err := d.Rollback(vs[0]); err != nil {
		t.Errorf("Rollback to a retained version: %v", err)
	}
}

// TestMonitorResumeAfterRestart proves the ROADMAP's open item: a
// monitor restarted from the store resumes — cumulative counters
// continue and the calibrated detector floor is re-installed — instead
// of re-running the calibration window.
func TestMonitorResumeAfterRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTestbed(Office(), 3)
	d, _, err := tb.Deploy(0, 20, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	const calibration = 60
	newDetector := func() DriftDetector { return NewMeanShiftDetector(calibration, 16, 3) }
	mon, err := NewMonitor(d, nil, WithDriftDetector(newDetector()), WithDriftHysteresis(2))
	if err != nil {
		t.Fatal(err)
	}
	// A comfortably stationary stretch: calibration completes and the
	// floor is checkpointed.
	const served = 150
	for q := 0; q < served; q++ {
		cx, cy := tb.CellCenter((q * 7) % tb.NumCells())
		if err := mon.Observe(tb.MeasureOnline(cx, cy, time.Hour+time.Duration(q)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	s1 := mon.Stats()
	if s1.Queries != served || s1.Detections != 0 {
		t.Fatalf("pre-restart stats %+v", s1)
	}
	mon.Close()
	st.Close()

	// Restart: fresh store handle, warm deployment, fresh monitor.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	d2, err := OpenDeployment(st2)
	if err != nil {
		t.Fatal(err)
	}
	mon2, err := NewMonitor(d2, nil, WithDriftDetector(newDetector()), WithDriftHysteresis(2))
	if err != nil {
		t.Fatal(err)
	}
	defer mon2.Close()
	if s := mon2.Stats(); s.Queries != served {
		t.Fatalf("restarted monitor starts at %d queries, want %d (resumed, not reset)", s.Queries, served)
	}

	// The environment has drifted while the process was down. A resumed
	// monitor detects within roughly a window + hysteresis; a reset one
	// would first burn the full calibration window learning the drifted
	// stream as its floor and never flag at all.
	detectedAt := -1
	for q := 0; q < 2*calibration; q++ {
		cx, cy := tb.CellCenter((q * 5) % tb.NumCells())
		if err := mon2.Observe(tb.MeasureOnline(cx, cy, 45*day+time.Duration(q)*time.Second)); err != nil {
			t.Fatal(err)
		}
		if mon2.Stats().Detections > 0 {
			detectedAt = q
			break
		}
	}
	if detectedAt < 0 {
		t.Fatal("restarted monitor never detected the drift — it must have re-calibrated from scratch")
	}
	if detectedAt >= calibration {
		t.Fatalf("detection took %d queries, want < the %d-query calibration window (resume, not recalibrate)", detectedAt, calibration)
	}
	s2 := mon2.Stats()
	if s2.Queries <= served {
		t.Fatalf("queries counter did not continue: %d", s2.Queries)
	}
}

// TestMonitorCloseBeforeObserveKeepsFloor: a monitor binds a snapshot
// on its first Observe, so one closed before observing anything — a
// restart followed by a shutdown with no query in between — must write
// back the floor it resumed from instead of erasing it. After a second
// restart the monitor still detects drift inside the calibration
// window.
func TestMonitorCloseBeforeObserveKeepsFloor(t *testing.T) {
	b := NewMemoryBackend()
	st, err := OpenStore("", WithBackend(b))
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTestbed(Office(), 3)
	d, _, err := tb.Deploy(0, 20, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	const calibration = 60
	newMonitor := func(d *Deployment) *Monitor {
		t.Helper()
		mon, err := NewMonitor(d, nil, WithDriftDetector(NewMeanShiftDetector(calibration, 16, 3)), WithDriftHysteresis(2))
		if err != nil {
			t.Fatal(err)
		}
		return mon
	}
	restart := func() (*Store, *Deployment) {
		t.Helper()
		st, err := OpenStore("", WithBackend(b))
		if err != nil {
			t.Fatal(err)
		}
		d, err := OpenDeployment(st)
		if err != nil {
			t.Fatal(err)
		}
		return st, d
	}
	mon := newMonitor(d)
	const served = 150
	for q := 0; q < served; q++ {
		cx, cy := tb.CellCenter((q * 7) % tb.NumCells())
		if err := mon.Observe(tb.MeasureOnline(cx, cy, time.Hour+time.Duration(q)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	mon.Close()
	st.Close()

	// First restart: closed before any Observe.
	st2, d2 := restart()
	newMonitor(d2).Close()
	st2.Close()

	// Second restart: the floor calibrated before the first one is
	// still installed, so the drift that happened meanwhile shows up
	// well inside the calibration window.
	st3, d3 := restart()
	defer st3.Close()
	mon3 := newMonitor(d3)
	defer mon3.Close()
	if s := mon3.Stats(); s.Queries != served {
		t.Fatalf("monitor resumed at %d queries, want %d", s.Queries, served)
	}
	detectedAt := -1
	for q := 0; q < 2*calibration; q++ {
		cx, cy := tb.CellCenter((q * 5) % tb.NumCells())
		if err := mon3.Observe(tb.MeasureOnline(cx, cy, 45*day+time.Duration(q)*time.Second)); err != nil {
			t.Fatal(err)
		}
		if mon3.Stats().Detections > 0 {
			detectedAt = q
			break
		}
	}
	if detectedAt < 0 || detectedAt >= calibration {
		t.Fatalf("drift detected at query %d, want within the %d-query calibration window: closing before the first Observe erased the floor", detectedAt, calibration)
	}
}

// TestMonitorStateIgnoredAfterDatabaseChange: a persisted floor from
// version N must not be installed when the store has moved on to N+1 —
// the residual baseline belongs to a specific snapshot.
func TestMonitorStateIgnoredAfterDatabaseChange(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTestbed(Office(), 4)
	d, _, err := tb.Deploy(0, 20, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(d, nil, WithDriftDetector(NewMeanShiftDetector(40, 16, 3)))
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 80; q++ {
		cx, cy := tb.CellCenter(q % tb.NumCells())
		if err := mon.Observe(tb.MeasureOnline(cx, cy, time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	mon.Close()
	// The database changes while the monitor is down.
	updateAt(t, d, tb, 30*day)
	st.Close()

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	d2, err := OpenDeployment(st2)
	if err != nil {
		t.Fatal(err)
	}
	mon2, err := NewMonitor(d2, nil, WithDriftDetector(NewMeanShiftDetector(40, 16, 3)))
	if err != nil {
		t.Fatal(err)
	}
	defer mon2.Close()
	// Counters still resume...
	if s := mon2.Stats(); s.Queries != 80 {
		t.Fatalf("queries = %d, want 80", s.Queries)
	}
	// ...but the stale floor is discarded: the detector re-calibrates,
	// so nothing can flag inside the fresh calibration window even on
	// wildly different traffic.
	for q := 0; q < 39; q++ {
		cx, cy := tb.CellCenter(q % tb.NumCells())
		if err := mon2.Observe(tb.MeasureOnline(cx, cy, 90*day)); err != nil {
			t.Fatal(err)
		}
	}
	if s := mon2.Stats(); s.Detections != 0 {
		t.Fatalf("detector flagged during re-calibration: %+v — the stale floor must not survive a version change", s)
	}
}
