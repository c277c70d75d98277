package iupdater

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iupdater/internal/store"
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

// deltaFixtureRecord is one record of a fixture log: its version, how
// it sits on disk, and the SHA-256 of its materialized payload.
type deltaFixtureRecord struct {
	version uint64
	kind    string
	bytes   int64
	sha256  string
}

// officeDeltaFixture describes testdata/delta-office.log, written by an
// earlier version of this package that persisted small publishes as
// delta records: office testbed seed 1 surveyed at day 0 (v1), updated
// at day 30 (v2) and day 60 (v5), and after each update two Installs
// that nudged five columns each (v3, v4, v6, v7). The SHA-256 values
// were recorded by the writer.
var officeDeltaFixture = []deltaFixtureRecord{
	{1, "full", 6197, "5b8ea9acb9939aef5de782c67ec23b6ef6d0bfd65d32c3379451e0a9be87fc0b"},
	{2, "full", 6197, "7086bbb5a922e20ed79cefcb24ac76f6d0d9b5b4df2d7287e6d7e9c72de7b8b5"},
	{3, "delta", 417, "b199dc525a093d7494ff901f0cbdd91899e324ccbb0d355541fad5680aacc1dc"},
	{4, "delta", 417, "71a315976bbc95a1dba06c5dcb4a743c88135d5679df401d6453ec241a4b28f2"},
	{5, "full", 6197, "ab329808bda98965b1e4f937c5f3406e638b96bea317fda0ccf03e56c6897f1c"},
	{6, "delta", 417, "cb5b92cfe8c92cbc65409f04906c411f0959d4057f0c09e96bb7a4df5ca3a8fb"},
	{7, "delta", 417, "74c2edcfcb5149d45d095b74969fc50642310692e873faccb857d22d4f4edf48"},
}

// officeFixtureProbes are the positions (as float64 bits) the writer's
// deployment returned at v7 for officeProbe(tb, k), k = 0..4.
var officeFixtureProbes = [][2]uint64{
	{0x401e000000000000, 0x3fe2000000000000},
	{0x401a000000000000, 0x3ffb000000000000},
	{0x4025000000000000, 0x4006800000000000},
	{0x401a000000000001, 0x4014400000000000},
	{0x4021000000000000, 0x4018c00000000000},
}

// officeProbe is the k-th online measurement the fixture probes use.
func officeProbe(tb *Testbed, k int) []float64 {
	cx, cy := tb.CellCenter((k * 17) % tb.NumCells())
	return tb.MeasureOnline(cx, cy, 60*day+time.Duration(k+1)*time.Minute)
}

// openFixtureStore copies testdata/<name> into a fresh store directory
// (Open may rewrite the log, so the checked-in bytes stay untouched)
// and opens it.
func openFixtureStore(t *testing.T, name string, opts ...StoreOption) (*Store, string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshots.log"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, dir
}

// checkFixtureVersions demands that every version the store retains
// materializes to the payload the fixture's writer recorded.
func checkFixtureVersions(t *testing.T, st *Store, want []deltaFixtureRecord) {
	t.Helper()
	byVersion := make(map[uint64]deltaFixtureRecord, len(want))
	for _, r := range want {
		byVersion[r.version] = r
	}
	for _, v := range st.Versions() {
		if _, ok := byVersion[v]; !ok {
			continue
		}
		payload, err := st.st.At(v)
		if err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(payload)); got != byVersion[v].sha256 {
			t.Fatalf("v%d materializes to sha256 %s, want %s", v, got, byVersion[v].sha256)
		}
		if _, _, err := st.SnapshotAt(v); err != nil {
			t.Fatalf("v%d does not decode: %v", v, err)
		}
	}
}

// TestStoreOpensDeltaFixture: a log holding delta records, written by
// an earlier version, still opens bit-identically at every version,
// compacts (rebasing a leading delta onto a full record and copying the
// rest), and streams to a follower.
func TestStoreOpensDeltaFixture(t *testing.T) {
	st, dir := openFixtureStore(t, "delta-office.log")
	recs := st.Records()
	if len(recs) != len(officeDeltaFixture) {
		t.Fatalf("recovered %d records %+v, want %d", len(recs), recs, len(officeDeltaFixture))
	}
	for i, r := range officeDeltaFixture {
		if want := (RecordInfo{Version: r.version, Kind: r.kind, Bytes: r.bytes}); recs[i] != want {
			t.Fatalf("record %d is %+v, want %+v", i, recs[i], want)
		}
	}
	checkFixtureVersions(t, st, officeDeltaFixture)
	raw, err := os.ReadFile(filepath.Join("testdata", "delta-office.log"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "snapshots.log")); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("opening the fixture changed its log (err %v)", err)
	}

	t.Run("stream", func(t *testing.T) {
		// A resume from v2 ships the whole line, the v3-v4 chain over
		// the v2 full record included; every version replays to the
		// writer's bytes.
		frames, err := st.st.RecordFramesFrom(2)
		if err != nil {
			t.Fatal(err)
		}
		var r store.Replay
		for i, f := range frames {
			v, kind, err := r.Apply(f)
			if err != nil {
				t.Fatal(err)
			}
			want := officeDeltaFixture[i+1]
			if v != want.version || kind.String() != want.kind {
				t.Fatalf("frame %d applied as v%d %v, want v%d %s", i, v, kind, want.version, want.kind)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(r.Payload())); got != want.sha256 {
				t.Fatalf("replayed v%d has sha256 %s, want %s", v, got, want.sha256)
			}
		}
		// A follower bootstraps at the newest full record (v5) and
		// resolves the v6-v7 chain into a bit-identical snapshot.
		d, err := OpenDeployment(st)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(d.ServeRecords())
		defer srv.Close()
		rep := fastReplica(t, srv.URL)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		got, err := rep.WaitVersion(ctx, 7)
		if err != nil {
			t.Fatal(err)
		}
		if got.Version() != 7 || !matricesEqual(got.Fingerprints(), d.Snapshot().Fingerprints()) {
			t.Fatalf("follower at v%d is not bit-identical to the leader's v7", got.Version())
		}
	})

	t.Run("compact", func(t *testing.T) {
		st, dir := openFixtureStore(t, "delta-office.log", WithRetention(5))
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		// The retained range v3..v7 starts with a delta whose base (v2)
		// is dropped: v3 becomes a full record, and v4..v7 are copied.
		want := []RecordInfo{{3, "full", 6197}, {4, "delta", 417}, {5, "full", 6197}, {6, "delta", 417}, {7, "delta", 417}}
		check := func(st *Store, stage string) {
			t.Helper()
			recs := st.Records()
			if len(recs) != len(want) {
				t.Fatalf("%s: records %+v, want %+v", stage, recs, want)
			}
			for i := range want {
				if recs[i] != want[i] {
					t.Fatalf("%s: records %+v, want %+v", stage, recs, want)
				}
			}
			checkFixtureVersions(t, st, officeDeltaFixture)
		}
		check(st, "compacted")
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st2, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		check(st2, "reopened")
	})
}

// TestStoreRestartRoundTrip is the kill-and-restart durability proof. A
// deployment warm-starts from a fixture log whose tail is a delta chain
// and locates bit-identically to the deployment that wrote it; then it
// publishes through the store, is reopened as a fresh process would,
// and must again localize bit-identically.
func TestStoreRestartRoundTrip(t *testing.T) {
	st, dir := openFixtureStore(t, "delta-office.log")
	tb := NewTestbed(Office(), 1)
	d, err := OpenDeployment(st)
	if err != nil {
		t.Fatal(err)
	}
	if v := d.Version(); v != 7 {
		t.Fatalf("warm-started version %d, want 7", v)
	}
	if d.Store() != st {
		t.Fatal("Store() does not return the attached store")
	}
	if g := d.Geometry(); g != tb.Geometry() {
		t.Fatalf("warm-started geometry %+v, want %+v", g, tb.Geometry())
	}
	for k, bits := range officeFixtureProbes {
		got, err := d.Locate(officeProbe(tb, k))
		if err != nil {
			t.Fatal(err)
		}
		if want := (Position{math.Float64frombits(bits[0]), math.Float64frombits(bits[1])}); got != want {
			t.Fatalf("probe %d: position %v, want the writer's %v", k, got, want)
		}
	}

	snap := updateAt(t, d, tb, 90*day)
	if snap.Version() != 8 {
		t.Fatalf("post-update version %d, want 8", snap.Version())
	}
	if rec := st.Records()[7]; rec.Kind != "full" || rec.Bytes != officeDeltaFixture[0].bytes {
		t.Fatalf("v8 stored as %+v, want a full record", rec)
	}
	probes := make([][]float64, 5)
	before := make([]Position, len(probes))
	for k := range probes {
		cx, cy := tb.CellCenter((k * 17) % tb.NumCells())
		probes[k] = tb.MeasureOnline(cx, cy, 90*day+time.Duration(k+1)*time.Minute)
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
	if v := d2.Version(); v != 8 {
		t.Fatalf("warm-started version %d, want 8", v)
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
	snap9 := updateAt(t, d2, tb, 120*day)
	if snap9.Version() != 9 {
		t.Fatalf("post-restart update version %d, want 9", snap9.Version())
	}
	vs := st2.Versions()
	if len(vs) != 9 || vs[0] != 1 || vs[8] != 9 {
		t.Fatalf("stored versions %v, want [1 .. 9]", vs)
	}
	checkFixtureVersions(t, st2, officeDeltaFixture)
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
