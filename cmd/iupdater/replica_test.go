package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"iupdater"
	"iupdater/internal/store"
)

// newDurableServer builds one durable office site under a fresh data
// directory and serves it, returning the test server and the site.
func newDurableServer(t *testing.T, retain int) (*httptest.Server, iupdater.SiteConfig) {
	t.Helper()
	s := newServer(0)
	st, _, err := buildSite(siteSpec{name: "hq", env: "office"}, 7, t.TempDir(), retain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.addSite("hq", st); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.fleet.Close() })
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return ts, st
}

// TestServeRecordsStream drives the leader side of replication over
// HTTP: bootstrap and resume reads return frames a follower Replay
// accepts, and a resume point that compaction removed answers 410.
func TestServeRecordsStream(t *testing.T) {
	ts, st := newDurableServer(t, 1)

	readFrames := func(t *testing.T, url string) (frames [][]byte, leader string, status int) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, resp.Header.Get("Iupdater-Oldest-Version"), resp.StatusCode
		}
		for {
			frame, err := store.ReadFrame(resp.Body)
			if err == io.EOF {
				return frames, resp.Header.Get("Iupdater-Leader-Version"), resp.StatusCode
			}
			if err != nil {
				t.Fatalf("reading stream: %v", err)
			}
			frames = append(frames, frame)
		}
	}

	// Bootstrap: the initial survey is one full record at v1.
	frames, leader, status := readFrames(t, ts.URL+"/records?from=0")
	if status != http.StatusOK || len(frames) != 1 || leader != "1" {
		t.Fatalf("bootstrap: status %d, %d frames, leader %q", status, len(frames), leader)
	}
	var replay store.Replay
	if v, kind, err := replay.Apply(frames[0]); err != nil || v != 1 || kind != store.KindFull {
		t.Fatalf("applying bootstrap frame: v%d %v %v", v, kind, err)
	}

	// Publish v2; resuming after v1 returns exactly the new record, on
	// the per-site route too.
	var up updateResponse
	if code := postJSON(t, ts.URL+"/update", updateRequest{Days: 30}, &up); code != http.StatusOK || up.Version != 2 {
		t.Fatalf("update: status %d version %d", code, up.Version)
	}
	frames, leader, status = readFrames(t, ts.URL+"/sites/hq/records?from=2")
	if status != http.StatusOK || len(frames) != 1 || leader != "2" {
		t.Fatalf("resume: status %d, %d frames, leader %q", status, len(frames), leader)
	}
	if v, _, err := replay.Apply(frames[0]); err != nil || v != 2 {
		t.Fatalf("applying resumed frame: v%d %v", v, err)
	}
	snap := st.Deployment.Snapshot()
	if want := snap.Fingerprints(); !bytes.Equal(replay.Payload()[33:], encodeTail(want)) {
		t.Fatal("replayed payload does not match the leader's snapshot")
	}

	// Caught up: an empty 200, not an error.
	frames, _, status = readFrames(t, ts.URL+"/records?from=3")
	if status != http.StatusOK || len(frames) != 0 {
		t.Fatalf("caught-up read: status %d, %d frames", status, len(frames))
	}

	// Publish until retention-1 compaction drops v1; the stale resume
	// point must answer 410 with the horizon advertised.
	if code := postJSON(t, ts.URL+"/update", updateRequest{Days: 31}, &up); code != http.StatusOK {
		t.Fatalf("update: status %d", code)
	}
	if err := st.Deployment.Store().Compact(); err != nil {
		t.Fatal(err)
	}
	_, oldest, status := readFrames(t, ts.URL+"/records?from=1")
	if status != http.StatusGone {
		t.Fatalf("compacted resume: status %d, want 410", status)
	}
	if oldest == "" || oldest == "0" {
		t.Fatalf("410 advertised oldest version %q", oldest)
	}

	// Malformed parameters and in-memory sites.
	if status := func() int {
		resp, err := http.Get(ts.URL + "/records?from=banana")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}(); status != http.StatusBadRequest {
		t.Fatalf("bad from: status %d", status)
	}
}

// encodeTail re-encodes a matrix the way snapshot payloads carry it
// past the 33-byte header (column-major float64 bits), for
// bit-identity checks against a replayed payload.
func encodeTail(m iupdater.Matrix) []byte {
	rows, cols := m.Dims()
	out := make([]byte, rows*cols*8)
	idx := 0
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			binary.LittleEndian.PutUint64(out[idx:], math.Float64bits(m.At(i, j)))
			idx += 8
		}
	}
	return out
}

// TestServeGracefulShutdownWithParkedRecordsPoll: a follower's records
// long-poll parked on the leader must not pin graceful shutdown until
// its wait deadline — the drain hook cancels it immediately.
func TestServeGracefulShutdownWithParkedRecordsPoll(t *testing.T) {
	s := newServer(0)
	st, _, err := buildSite(siteSpec{name: "hq", env: "office"}, 7, t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.addSite("hq", st); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.fleet.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := s.httpServer()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveUntil(ctx, srv, ln, 5*time.Second, func() {}) }()

	// Park a caught-up long-poll far longer than the drain timeout.
	polled := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/records?from=2&wait=25s")
		if err != nil {
			polled <- -1
			return
		}
		resp.Body.Close()
		polled <- resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond) // let the poll reach the handler and park

	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveUntil returned %v, want nil", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("shutdown pinned by the parked long-poll")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("drain took %s, want the parked poll cancelled immediately", d)
	}
	if code := <-polled; code != http.StatusOK && code != -1 {
		t.Fatalf("parked poll finished with status %d", code)
	}
}

// TestServeFollowerSite runs a full leader/follower pair over HTTP:
// the follower site syncs through a Replica, serves bit-identical
// localization read-only, and reports its lag under /sites.
func TestServeFollowerSite(t *testing.T) {
	leaderTS, leaderSite := newDurableServer(t, 0)

	rep, err := iupdater.OpenReplica(leaderTS.URL+"/records",
		iupdater.WithReplicaWait(200*time.Millisecond),
		iupdater.WithReplicaBackoff(5*time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	follower := newServer(0)
	if _, err := follower.fleet.AddReplica("branch", rep); err != nil {
		t.Fatal(err)
	}
	follower.claimDefault("branch")
	t.Cleanup(func() { follower.fleet.Close() })
	fts := httptest.NewServer(follower.handler())
	t.Cleanup(fts.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := rep.WaitVersion(ctx, 1); err != nil {
		t.Fatal(err)
	}

	// Bit-identical serving: the same measurement localizes to the
	// same position at the same version on both sides.
	tb := testbedOf(leaderSite)
	cx, cy := tb.CellCenter(17)
	rss := tb.MeasureOnline(cx, cy, time.Hour)
	var lResp, fResp locateResponse
	if code := postJSON(t, leaderTS.URL+"/locate", locateRequest{RSS: rss}, &lResp); code != http.StatusOK {
		t.Fatalf("leader locate status %d", code)
	}
	if code := postJSON(t, fts.URL+"/sites/branch/locate", locateRequest{RSS: rss}, &fResp); code != http.StatusOK {
		t.Fatalf("follower locate status %d", code)
	}
	if lResp.Version != fResp.Version || *lResp.Position != *fResp.Position {
		t.Fatalf("leader %+v vs follower %+v", lResp, fResp)
	}

	// The follower stays read-only and does not re-serve records.
	if code := postJSON(t, fts.URL+"/sites/branch/update", updateRequest{Days: 10}, nil); code != http.StatusConflict {
		t.Fatalf("follower update status %d, want 409", code)
	}
	if code := postJSON(t, fts.URL+"/sites/branch/rollback?version=1", nil, nil); code != http.StatusConflict {
		t.Fatalf("follower rollback status %d, want 409", code)
	}
	if code := getJSON(t, fts.URL+"/sites/branch/records?from=0", nil); code != http.StatusConflict {
		t.Fatalf("follower records status %d, want 409", code)
	}

	// A leader publish propagates; the summary reports the replication
	// state with zero lag once applied.
	var up updateResponse
	if code := postJSON(t, leaderTS.URL+"/update", updateRequest{Days: 30}, &up); code != http.StatusOK || up.Version != 2 {
		t.Fatalf("leader update: status %d version %d", code, up.Version)
	}
	if _, err := rep.WaitVersion(ctx, 2); err != nil {
		t.Fatal(err)
	}
	var sum iupdater.SiteSummary
	if code := getJSON(t, fts.URL+"/sites/branch", &sum); code != http.StatusOK {
		t.Fatalf("/sites/branch status %d", code)
	}
	if sum.Replica == nil || sum.Replica.Source == "" {
		t.Fatalf("summary %+v: want replica status", sum)
	}
	if sum.Version != 2 || sum.Replica.Lag != 0 || sum.Replica.LeaderVersion != 2 {
		t.Fatalf("replica status %+v, want v2 lag 0", sum.Replica)
	}
	if sum.Links == 0 || sum.Cells == 0 {
		t.Fatalf("summary %+v: want geometry learned from the stream", sum)
	}

	// healthz on a follower-only server reports the synced version.
	var hz map[string]any
	if code := getJSON(t, fts.URL+"/healthz", &hz); code != http.StatusOK || hz["version"].(float64) != 2 {
		t.Fatalf("healthz %v (status %d)", hz, code)
	}
}
