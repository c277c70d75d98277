package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"iupdater"
)

// newOfficeSite deploys one in-memory office-testbed site for handler
// tests, ready to register with server.addSite.
func newOfficeSite(t *testing.T, seed uint64) iupdater.SiteConfig {
	t.Helper()
	tb := iupdater.NewTestbed(iupdater.Office(), seed)
	d, _, err := tb.Deploy(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	return iupdater.SiteConfig{Deployment: d, Payload: &site{tb: tb}}
}

// testbedOf returns the testbed a site registration measures from.
func testbedOf(cfg iupdater.SiteConfig) *iupdater.Testbed { return payload(cfg.Payload).tb }

func newTestServer(t *testing.T) (*httptest.Server, *iupdater.Testbed) {
	t.Helper()
	st := newOfficeSite(t, 1)
	s := newServer(0)
	if err := s.addSite("default", st); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return ts, testbedOf(st)
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

func TestServeLocate(t *testing.T) {
	ts, tb := newTestServer(t)
	cx, cy := tb.CellCenter(42)
	rss := tb.MeasureOnline(cx, cy, time.Hour)

	var resp locateResponse
	if code := postJSON(t, ts.URL+"/locate", locateRequest{RSS: rss}, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Version != 1 || resp.Position == nil {
		t.Fatalf("response %+v", resp)
	}
	if dx, dy := resp.Position.X-cx, resp.Position.Y-cy; dx*dx+dy*dy > 25 {
		t.Errorf("estimate (%.1f, %.1f) far from (%.1f, %.1f)", resp.Position.X, resp.Position.Y, cx, cy)
	}

	// Batch form.
	var batchResp locateResponse
	batch := [][]float64{rss, tb.MeasureOnline(cx, cy, 2*time.Hour)}
	if code := postJSON(t, ts.URL+"/locate", locateRequest{Batch: batch}, &batchResp); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if len(batchResp.Positions) != 2 {
		t.Fatalf("batch response %+v", batchResp)
	}

	// The per-site route addresses the same default deployment.
	var siteResp locateResponse
	if code := postJSON(t, ts.URL+"/sites/default/locate", locateRequest{RSS: rss}, &siteResp); code != http.StatusOK {
		t.Fatalf("per-site status %d", code)
	}
	if siteResp.Position == nil || *siteResp.Position != *resp.Position {
		t.Errorf("per-site estimate %+v != alias estimate %+v", siteResp.Position, resp.Position)
	}

	// Malformed requests.
	if code := postJSON(t, ts.URL+"/locate", locateRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty request: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/locate", locateRequest{RSS: []float64{1}}, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("short rss: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/sites/nowhere/locate", locateRequest{RSS: rss}, nil); code != http.StatusNotFound {
		t.Errorf("unknown site: status %d", code)
	}
}

func TestServeUpdateAndSnapshot(t *testing.T) {
	ts, _ := newTestServer(t)

	var up updateResponse
	if code := postJSON(t, ts.URL+"/update", updateRequest{Days: 30}, &up); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	if up.Version != 2 || len(up.References) == 0 {
		t.Fatalf("update response %+v", up)
	}

	var snap snapshotResponse
	if code := getJSON(t, ts.URL+"/snapshot", &snap); code != http.StatusOK {
		t.Fatalf("snapshot status %d", code)
	}
	if snap.Version != 2 || snap.Links != 8 || snap.Cells != 96 {
		t.Fatalf("snapshot header %+v", snap)
	}
	if len(snap.Fingerprints) != snap.Links || len(snap.Fingerprints[0]) != snap.Cells {
		t.Fatalf("snapshot matrix %dx%d", len(snap.Fingerprints), len(snap.Fingerprints[0]))
	}

	if code := postJSON(t, ts.URL+"/update", updateRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty update: status %d", code)
	}
}

// TestServeUpdateDaysHorizon: a testbed-driven update that would take
// the site's simulated clock past ten years, including one whose
// conversion to a time.Duration overflows, answers 400 and leaves the
// version and the clock unchanged.
func TestServeUpdateDaysHorizon(t *testing.T) {
	cfg := newOfficeSite(t, 1)
	s := newServer(0)
	if err := s.addSite("default", cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	clock := func() time.Duration {
		st := payload(cfg.Payload)
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.clock
	}

	var up updateResponse
	if code := postJSON(t, ts.URL+"/update", updateRequest{Days: 2}, &up); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	for _, days := range []float64{1e300, 40000, 3648.5} {
		if code := postJSON(t, ts.URL+"/update", updateRequest{Days: days}, nil); code != http.StatusBadRequest {
			t.Fatalf("days %g: status %d, want 400", days, code)
		}
	}
	if got := clock(); got != 48*time.Hour {
		t.Errorf("clock after rejected updates = %v, want 48h", got)
	}
	var next updateResponse
	if code := postJSON(t, ts.URL+"/update", updateRequest{Days: 1}, &next); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	if next.Version != up.Version+1 {
		t.Errorf("version after rejected updates = %d, want %d", next.Version, up.Version+1)
	}
	if got := clock(); got != 72*time.Hour {
		t.Errorf("clock = %v, want 72h", got)
	}
}

func TestAdvanceClockHorizon(t *testing.T) {
	const day = 24 * time.Hour
	tests := []struct {
		clock time.Duration
		days  float64
		want  time.Duration
		ok    bool
	}{
		{0, 1, day, true},
		{0, maxClockDays, maxClockDays * day, true},
		{0, maxClockDays + 1e-6, 0, false},
		{2 * day, maxClockDays - 2, maxClockDays * day, true},
		{2 * day, maxClockDays - 1.5, 0, false},
		{0, 1e300, 0, false},
	}
	for _, tt := range tests {
		got, ok := advanceClock(tt.clock, tt.days)
		if got != tt.want || ok != tt.ok {
			t.Errorf("advanceClock(%v, %g) = %v, %v; want %v, %v", tt.clock, tt.days, got, ok, tt.want, tt.ok)
		}
	}
}

func TestServeRawUpdate(t *testing.T) {
	ts, tb := newTestServer(t)

	// First ask the server which reference locations it wants.
	var up updateResponse
	if code := postJSON(t, ts.URL+"/update", updateRequest{Days: 1}, &up); code != http.StatusOK {
		t.Fatalf("probe update status %d", code)
	}

	at := 45 * 24 * time.Hour
	cols, _ := tb.ReferenceMatrix(at, up.References)
	req := updateRequest{
		NoDecrease: tb.NoDecreaseMatrix(at).ToRows(),
		Known:      tb.Mask().ToRows(),
		References: cols.ToRows(),
	}
	var raw updateResponse
	if code := postJSON(t, ts.URL+"/update", req, &raw); code != http.StatusOK {
		t.Fatalf("raw update status %d", code)
	}
	if raw.Version != 3 {
		t.Errorf("raw update version %d", raw.Version)
	}
}

// TestServeMethodNotAllowed asserts every route answers a wrong-method
// hit with an explicit 405, an Allow header and the API's JSON error
// shape — not a 404 or the mux's implicit plain-text handling.
func TestServeMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/locate", "POST"},
		{http.MethodDelete, "/update", "POST"},
		{http.MethodPost, "/snapshot", "GET"},
		{http.MethodPut, "/drift", "GET"},
		{http.MethodGet, "/rollback", "POST"},
		{http.MethodPost, "/sites", "GET"},
		// The site lifecycle routes share one pattern; a wrong-method hit
		// must advertise every supported method.
		{http.MethodPost, "/sites/default", "GET, PUT, DELETE"},
		{http.MethodPatch, "/sites/default", "GET, PUT, DELETE"},
		{http.MethodPost, "/sites/nosuch", "GET, PUT, DELETE"},
		{http.MethodGet, "/sites/default/locate", "POST"},
		{http.MethodDelete, "/sites/default/update", "POST"},
		{http.MethodPost, "/sites/default/snapshot", "GET"},
		{http.MethodPost, "/sites/default/drift", "GET"},
		{http.MethodGet, "/sites/default/rollback", "POST"},
		{http.MethodPost, "/records", "GET"},
		{http.MethodDelete, "/sites/default/records", "GET"},
		{http.MethodPost, "/metrics", "GET"},
		{http.MethodPost, "/healthz", "GET"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != tc.allow {
			t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, allow, tc.allow)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["error"] == "" {
			t.Errorf("%s %s: want a JSON error body, got decode err %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
	}
}

// TestServeFleetRoutes drives two durable sites through the fleet
// surface: listing, per-site update/drift, and a rollback whose effect
// is observable through /sites/{name}/snapshot.
func TestServeFleetRoutes(t *testing.T) {
	dataDir := t.TempDir()
	s := newServer(0)
	for i, name := range []string{"hq", "annex"} {
		st, warm, err := buildSite(siteSpec{name: name, env: "office"}, uint64(30+i), dataDir, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if warm {
			t.Fatalf("site %s warm-started from an empty directory", name)
		}
		if err := s.addSite(name, withMonitor(st)); err != nil {
			t.Fatal(err)
		}
	}
	defer s.fleet.Close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	var sites sitesResponse
	if code := getJSON(t, ts.URL+"/sites", &sites); code != http.StatusOK {
		t.Fatalf("/sites status %d", code)
	}
	if len(sites.Sites) != 2 || sites.Sites[0].Name != "annex" || sites.Sites[1].Name != "hq" {
		t.Fatalf("/sites = %+v", sites.Sites)
	}
	for _, sum := range sites.Sites {
		if !sum.Durable || sum.Drift == nil || len(sum.StoredVersions) != 1 {
			t.Errorf("site %s summary %+v: want durable, monitored, 1 stored version", sum.Name, sum)
		}
	}

	// Update only the annex: versions diverge per site.
	var up updateResponse
	if code := postJSON(t, ts.URL+"/sites/annex/update", updateRequest{Days: 30}, &up); code != http.StatusOK {
		t.Fatalf("annex update status %d", code)
	}
	if up.Version != 2 {
		t.Fatalf("annex update -> v%d", up.Version)
	}
	var annex, hq siteSummaryJSON
	if code := getJSON(t, ts.URL+"/sites/annex", &annex); code != http.StatusOK {
		t.Fatalf("/sites/annex status %d", code)
	}
	if code := getJSON(t, ts.URL+"/sites/hq", &hq); code != http.StatusOK {
		t.Fatalf("/sites/hq status %d", code)
	}
	if annex.Version != 2 || hq.Version != 1 {
		t.Fatalf("annex v%d hq v%d, want 2 and 1", annex.Version, hq.Version)
	}
	if len(annex.StoredVersions) != 2 {
		t.Fatalf("annex stored versions %v", annex.StoredVersions)
	}

	// Per-site drift endpoints are live and independent.
	var dr driftResponse
	if code := getJSON(t, ts.URL+"/sites/hq/drift", &dr); code != http.StatusOK {
		t.Fatalf("/sites/hq/drift status %d", code)
	}
	if dr.Version != 1 {
		t.Errorf("hq drift tracks v%d, want 1", dr.Version)
	}

	// Snapshot before rollback, then roll the annex back to v1 and
	// observe the change through the snapshot route.
	var v1snap snapshotResponse
	if code := getJSON(t, ts.URL+"/sites/hq/snapshot", &v1snap); code != http.StatusOK {
		t.Fatalf("hq snapshot status %d", code)
	}
	var v2snap snapshotResponse
	if code := getJSON(t, ts.URL+"/sites/annex/snapshot", &v2snap); code != http.StatusOK {
		t.Fatalf("annex snapshot status %d", code)
	}
	var rb rollbackResponse
	if code := postJSON(t, ts.URL+"/sites/annex/rollback?version=1", nil, &rb); code != http.StatusOK {
		t.Fatalf("rollback status %d", code)
	}
	if rb.Version != 3 || rb.RestoredVersion != 1 {
		t.Fatalf("rollback response %+v", rb)
	}
	var v3snap snapshotResponse
	if code := getJSON(t, ts.URL+"/sites/annex/snapshot", &v3snap); code != http.StatusOK {
		t.Fatalf("post-rollback snapshot status %d", code)
	}
	if v3snap.Version != 3 {
		t.Fatalf("post-rollback snapshot v%d, want 3", v3snap.Version)
	}
	if v3snap.Fingerprints[0][0] == v2snap.Fingerprints[0][0] {
		t.Error("rollback left the updated fingerprints in place")
	}

	// Rollback error paths.
	if code := postJSON(t, ts.URL+"/sites/annex/rollback", nil, nil); code != http.StatusBadRequest {
		t.Errorf("rollback without version: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/sites/annex/rollback?version=zig", nil, nil); code != http.StatusBadRequest {
		t.Errorf("rollback with junk version: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/sites/annex/rollback?version=99", nil, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("rollback to missing version: status %d", code)
	}
}

// TestServeWarmRestart proves the -data-dir round trip at the serve
// layer: a site built once persists, and a second buildSite for the
// same directory warm-starts at the same version with bit-identical
// localization instead of re-surveying.
func TestServeWarmRestart(t *testing.T) {
	dataDir := t.TempDir()
	spec := siteSpec{name: "default", env: "office"}
	st1, warm, err := buildSite(spec, 5, dataDir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("first build claims warm restart")
	}
	s1 := newServer(0)
	if err := s1.addSite("default", st1); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.handler())
	var up updateResponse
	if code := postJSON(t, ts1.URL+"/update", updateRequest{Days: 20}, &up); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	cx, cy := testbedOf(st1).CellCenter(31)
	probe := testbedOf(st1).MeasureOnline(cx, cy, 20*24*time.Hour)
	var before locateResponse
	if code := postJSON(t, ts1.URL+"/locate", locateRequest{RSS: probe}, &before); code != http.StatusOK {
		t.Fatalf("locate status %d", code)
	}
	ts1.Close()
	if err := s1.fleet.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart the process": rebuild the site from the same data dir.
	st2, warm, err := buildSite(spec, 5, dataDir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Fatal("second build did not warm-start")
	}
	s2 := newServer(0)
	if err := s2.addSite("default", st2); err != nil {
		t.Fatal(err)
	}
	defer s2.fleet.Close()
	ts2 := httptest.NewServer(s2.handler())
	defer ts2.Close()
	var after locateResponse
	if code := postJSON(t, ts2.URL+"/locate", locateRequest{RSS: probe}, &after); code != http.StatusOK {
		t.Fatalf("post-restart locate status %d", code)
	}
	if after.Version != before.Version || *after.Position != *before.Position {
		t.Fatalf("post-restart locate %+v != pre-restart %+v", after, before)
	}
}

func TestParseSiteSpecs(t *testing.T) {
	specs, err := parseSiteSpecs("", "office")
	if err != nil || len(specs) != 1 || specs[0] != (siteSpec{name: "default", env: "office"}) {
		t.Fatalf("default spec = %+v, err %v", specs, err)
	}
	specs, err = parseSiteSpecs("hq=office, annex=library,spare", "hall")
	if err != nil || len(specs) != 3 {
		t.Fatalf("specs = %+v, err %v", specs, err)
	}
	if specs[1] != (siteSpec{name: "annex", env: "library"}) || specs[2] != (siteSpec{name: "spare", env: "hall"}) {
		t.Fatalf("specs = %+v", specs)
	}
	if _, err := parseSiteSpecs("a=office,a=library", "office"); err == nil {
		t.Error("duplicate site accepted")
	}
	if _, err := parseSiteSpecs("=office", "office"); err == nil {
		t.Error("empty site name accepted")
	}
}

func TestServeDriftEndpointAndMonitorFeed(t *testing.T) {
	// Without -monitor the endpoint reports 404.
	sOff := newServer(0)
	if err := sOff.addSite("default", newOfficeSite(t, 1)); err != nil {
		t.Fatal(err)
	}
	defer sOff.fleet.Close()
	off := httptest.NewServer(sOff.handler())
	defer off.Close()
	if code := getJSON(t, off.URL+"/drift", nil); code != http.StatusNotFound {
		t.Errorf("/drift without -monitor: status %d, want 404", code)
	}

	st2 := newOfficeSite(t, 1)
	sOn := newServer(0)
	if err := sOn.addSite("default", withMonitor(st2)); err != nil {
		t.Fatal(err)
	}
	defer sOn.fleet.Close()
	on := httptest.NewServer(sOn.handler())
	defer on.Close()

	// Served locate traffic must feed the monitor: single and batch.
	tb := testbedOf(st2)
	cx, cy := tb.CellCenter(10)
	rss := tb.MeasureOnline(cx, cy, time.Hour)
	if code := postJSON(t, on.URL+"/locate", locateRequest{RSS: rss}, nil); code != http.StatusOK {
		t.Fatalf("locate status %d", code)
	}
	batch := [][]float64{rss, tb.MeasureOnline(cx, cy, time.Hour+time.Minute)}
	if code := postJSON(t, on.URL+"/locate", locateRequest{Batch: batch}, nil); code != http.StatusOK {
		t.Fatalf("batch locate status %d", code)
	}

	var dr driftResponse
	if code := getJSON(t, on.URL+"/drift", &dr); code != http.StatusOK {
		t.Fatalf("/drift status %d", code)
	}
	if dr.Queries != 3 {
		t.Errorf("monitor observed %d queries, want 3 (1 single + 2 batch)", dr.Queries)
	}
	if dr.Version != 1 || dr.Detections != 0 {
		t.Errorf("unexpected drift stats %+v", dr)
	}
	if dr.Residual <= 0 {
		t.Errorf("residual %.3f, want > 0", dr.Residual)
	}
}

// TestServeClosesSilentConnections: a client that connects and never
// sends a request header is disconnected once readHeaderTimeout passes,
// instead of holding a server goroutine and a socket forever.
func TestServeClosesSilentConnections(t *testing.T) {
	t.Parallel()
	srv := newServer(0).httpServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("silent connection still open after %v: %v", time.Since(start).Round(time.Millisecond), err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout-time.Second {
		t.Errorf("silent connection closed after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	st := newOfficeSite(t, 1)
	s := newServer(0)
	if err := s.addSite("default", withMonitor(st)); err != nil {
		t.Fatal(err)
	}
	fs, _ := s.fleet.Site("default")
	mon := fs.Monitor()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := s.httpServer()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	cleaned := make(chan struct{})
	go func() {
		done <- serveUntil(ctx, srv, ln, 5*time.Second, func() {
			s.fleet.Close()
			close(cleaned)
		})
	}()

	// The server must actually be serving before we shut it down.
	url := "http://" + ln.Addr().String()
	cx, cy := testbedOf(st).CellCenter(5)
	rss := testbedOf(st).MeasureOnline(cx, cy, time.Hour)
	if code := postJSON(t, url+"/locate", locateRequest{RSS: rss}, nil); code != http.StatusOK {
		t.Fatalf("pre-shutdown locate status %d", code)
	}

	cancel() // stands in for SIGINT/SIGTERM via signal.NotifyContext
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveUntil returned %v, want nil on graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveUntil did not return after cancellation")
	}
	select {
	case <-cleaned:
	default:
		t.Fatal("cleanup did not run before serveUntil returned")
	}
	// The monitor is stopped: further observations must be rejected.
	if err := mon.Observe(rss); err == nil {
		t.Error("monitor still accepting observations after shutdown")
	}
	// And the listener is really closed.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("server still reachable after shutdown")
	}
}

func TestServePprofGating(t *testing.T) {
	// The profiling endpoints must be absent by default and present only
	// when the -pprof flag enables them.
	s := newServer(0)
	if err := s.addSite("default", newOfficeSite(t, 1)); err != nil {
		t.Fatal(err)
	}
	off := httptest.NewServer(s.handler())
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof reachable without -pprof: status %d", resp.StatusCode)
	}

	s.pprof = true
	on := httptest.NewServer(s.handler())
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index with -pprof: status %d, want 200", resp.StatusCode)
	}
}

func TestParseSiteSpecsRejectsUnsafeNames(t *testing.T) {
	// Names become -data-dir subdirectories and URL path segments; they
	// must be rejected before buildSite touches the filesystem.
	for _, bad := range []string{"..", "a/b", "a.b", "..=office", "evil/../../x=office"} {
		if _, err := parseSiteSpecs(bad, "office"); err == nil {
			t.Errorf("unsafe -sites spec %q accepted", bad)
		}
	}
}

// TestServeRollbackCompactedVersionIsClientError: rolling back to a
// version the store has compacted away is the client's mistake, so the
// route must answer with a 4xx carrying the store's "not retained"
// message — never a 500.
func TestServeRollbackCompactedVersionIsClientError(t *testing.T) {
	s := newServer(0)
	st, _, err := buildSite(siteSpec{name: "default", env: "office"}, 9, t.TempDir(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.addSite("default", st); err != nil {
		t.Fatal(err)
	}
	defer s.fleet.Close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Three updates publish v2..v4; with -retain 2 the store compacts
	// down to [3 4], so v1 leaves the rollback window.
	for days := 10; days <= 30; days += 10 {
		if code := postJSON(t, ts.URL+"/update", updateRequest{Days: float64(days)}, nil); code != http.StatusOK {
			t.Fatalf("update(%dd) status %d", days, code)
		}
	}
	var sum siteSummaryJSON
	if code := getJSON(t, ts.URL+"/sites/default", &sum); code != http.StatusOK {
		t.Fatalf("summary status %d", code)
	}
	if len(sum.StoredVersions) == 0 || sum.StoredVersions[0] == 1 {
		t.Fatalf("stored versions %v: v1 was not compacted away", sum.StoredVersions)
	}

	resp, err := http.Post(ts.URL+"/rollback?version=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Fatalf("rollback to compacted version: status %d, want a 4xx", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body["error"], "not retained") {
		t.Errorf("error %q does not carry the store's \"not retained\" message", body["error"])
	}
	// A retained version still rolls back fine.
	var rb rollbackResponse
	if code := postJSON(t, ts.URL+"/rollback?version="+strconv.FormatUint(sum.StoredVersions[0], 10), nil, &rb); code != http.StatusOK {
		t.Fatalf("rollback to retained version: status %d", code)
	}
	if rb.RestoredVersion != sum.StoredVersions[0] {
		t.Errorf("rollback response %+v", rb)
	}
}

// TestServeSnapshotAndSummaryExposeRecords: durable sites report each
// stored version's record kind and on-disk bytes through the summary,
// and the serving version's record through the snapshot route.
func TestServeSnapshotAndSummaryExposeRecords(t *testing.T) {
	s := newServer(0)
	st, _, err := buildSite(siteSpec{name: "default", env: "office"}, 11, t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.addSite("default", st); err != nil {
		t.Fatal(err)
	}
	defer s.fleet.Close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	if code := postJSON(t, ts.URL+"/update", updateRequest{Days: 15}, nil); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	var sum siteSummaryJSON
	if code := getJSON(t, ts.URL+"/sites/default", &sum); code != http.StatusOK {
		t.Fatalf("summary status %d", code)
	}
	if len(sum.StoredRecords) != len(sum.StoredVersions) || len(sum.StoredRecords) != 2 {
		t.Fatalf("stored records %+v vs versions %v", sum.StoredRecords, sum.StoredVersions)
	}
	for i, rec := range sum.StoredRecords {
		if rec.Version != sum.StoredVersions[i] || rec.Bytes <= 0 || (rec.Kind != "full" && rec.Kind != "delta") {
			t.Errorf("stored record %+v", rec)
		}
	}
	var snap snapshotResponse
	if code := getJSON(t, ts.URL+"/snapshot", &snap); code != http.StatusOK {
		t.Fatalf("snapshot status %d", code)
	}
	if snap.Record == nil || snap.Record.Version != snap.Version || snap.Record.Bytes <= 0 {
		t.Fatalf("snapshot record %+v, want the serving version's on-disk record", snap.Record)
	}

	// In-memory sites have no records to report.
	s2 := newServer(0)
	if err := s2.addSite("default", newOfficeSite(t, 1)); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.handler())
	defer ts2.Close()
	var memSnap snapshotResponse
	if code := getJSON(t, ts2.URL+"/snapshot", &memSnap); code != http.StatusOK {
		t.Fatalf("in-memory snapshot status %d", code)
	}
	if memSnap.Record != nil {
		t.Errorf("in-memory snapshot reports a record: %+v", memSnap.Record)
	}
}

// TestServeLocateRejectsImplausibleReading: a reading whose square
// overflows used to panic the monitor's residual scan and cut the
// connection. It is a client error now, and the monitor never sees it.
func TestServeLocateRejectsImplausibleReading(t *testing.T) {
	s := newServer(0)
	if err := s.addSite("default", withMonitor(newOfficeSite(t, 1))); err != nil {
		t.Fatal(err)
	}
	defer s.fleet.Close()
	srv := httptest.NewServer(s.handler())
	defer srv.Close()
	for _, body := range []string{
		`{"rss":[-60,-61,1e160,-63,-64,-65,-66,-67]}`,
		`{"batch":[[-60,-61,-62,-63,-64,-65,-66,-67],[-60,-61,-62,-63,-64,-65,-66,1e200]]}`,
	} {
		resp, err := http.Post(srv.URL+"/locate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(msg), "plausible range") {
			t.Fatalf("%s: status %d %s, want 422 naming the plausible range", body, resp.StatusCode, msg)
		}
	}
	var dr driftResponse
	if code := getJSON(t, srv.URL+"/drift", &dr); code != http.StatusOK {
		t.Fatalf("/drift status %d", code)
	}
	if dr.Queries != 0 {
		t.Fatalf("monitor observed %d queries, want 0: rejected readings must not reach it", dr.Queries)
	}
}
