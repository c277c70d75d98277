package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"iupdater"
)

// tracedOfficeSite is newOfficeSite with a durable store and the
// server's tracer attached to the deployment, so library pipelines
// (locate, auto-update) land in the rings /traces serves.
func tracedOfficeSite(t *testing.T, s *server, name string, seed uint64) iupdater.SiteConfig {
	t.Helper()
	st, err := iupdater.OpenStore(t.TempDir(), iupdater.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	tb := iupdater.NewTestbed(iupdater.Office(), seed)
	d, _, err := tb.Deploy(0, 20, iupdater.WithStore(st), iupdater.WithTracer(s.tracer, name))
	if err != nil {
		t.Fatal(err)
	}
	return iupdater.SiteConfig{Deployment: d, Payload: &site{tb: tb}}
}

// TestServeTraceparentRoundTrip exercises W3C context propagation on a
// route: an incoming sampled traceparent is adopted (the response
// echoes the same trace ID with a server-side span), the trace is
// force-retained, and GET /traces/{id} returns the span tree down to
// the OMP solve.
func TestServeTraceparentRoundTrip(t *testing.T) {
	s := newServer(0)
	st := newOfficeSite(t, 1)
	if err := s.addSite("default", st); err != nil {
		t.Fatal(err)
	}
	defer s.fleet.Close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	tb := testbedOf(st)
	body, _ := json.Marshal(map[string]any{"rss": tb.MeasureOnline(2, 2, 0)})
	req, err := http.NewRequest("POST", ts.URL+"/locate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	const upstream = "11112222333344445555666677778888"
	req.Header.Set("traceparent", "00-"+upstream+"-00000000000000aa-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /locate: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Iupdater-Trace-Id"); got != upstream {
		t.Fatalf("Iupdater-Trace-Id = %q, want adopted upstream ID %q", got, upstream)
	}
	tp := resp.Header.Get("Traceparent")
	parts := strings.Split(tp, "-")
	if len(parts) != 4 || parts[0] != "00" || parts[1] != upstream || parts[3] != "01" {
		t.Fatalf("response traceparent %q does not continue upstream context", tp)
	}
	if parts[2] == "00000000000000aa" {
		t.Fatalf("response traceparent %q re-uses the caller's span ID", tp)
	}

	var tr traceResponse
	if code := getJSON(t, ts.URL+"/traces/"+upstream, &tr); code != http.StatusOK {
		t.Fatalf("GET /traces/{id}: status %d", code)
	}
	if tr.Path != "http.locate" || tr.RemoteParent != 0xaa {
		t.Fatalf("trace = %+v, want http.locate with remote parent aa", tr.traceSummaryJSON)
	}
	names := make(map[string]spanJSON, len(tr.Spans))
	for _, sp := range tr.Spans {
		names[sp.Name] = sp
	}
	if _, ok := names["omp.solve"]; !ok {
		t.Errorf("trace tree lacks the omp.solve span: %+v", tr.Spans)
	}
	if v, ok := tr.Spans[0].Attrs["status"].(float64); !ok || v != 200 {
		t.Errorf("root status attr = %v, want 200", tr.Spans[0].Attrs["status"])
	}
	if v, ok := tr.Spans[0].Attrs["method"].(string); !ok || v != "POST" {
		t.Errorf("root method attr = %v, want POST", tr.Spans[0].Attrs["method"])
	}

	// The listing must include the retained trace; a garbage ID is a
	// 400 and an unknown-but-valid one a 404.
	var listing tracesResponse
	if code := getJSON(t, ts.URL+"/traces", &listing); code != http.StatusOK {
		t.Fatalf("GET /traces: status %d", code)
	}
	found := false
	for _, sum := range listing.Recent {
		if sum.ID == upstream {
			found = true
		}
	}
	if !found {
		t.Errorf("GET /traces recent ring lacks %s: %+v", upstream, listing.Recent)
	}
	if code := getJSON(t, ts.URL+"/traces/zzz", nil); code != http.StatusBadRequest {
		t.Errorf("GET /traces/zzz: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/traces/"+strings.Repeat("ab", 16), nil); code != http.StatusNotFound {
		t.Errorf("GET /traces/<unknown>: status %d, want 404", code)
	}
}

// TestServeUpdateTraceCoversPipeline POSTs a manual update with a
// sampled traceparent and asserts the retained trace spans the whole
// pipeline: HTTP entry, the sample measurement, then reconstruct →
// persist → swap from the library.
func TestServeUpdateTraceCoversPipeline(t *testing.T) {
	s := newServer(0)
	if err := s.addSite("default", tracedOfficeSite(t, s, "default", 1)); err != nil {
		t.Fatal(err)
	}
	defer s.fleet.Close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	const id = "aaaabbbbccccddddeeeeffff00001111"
	body, _ := json.Marshal(map[string]any{"days": 45})
	req, err := http.NewRequest("POST", ts.URL+"/update", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+id+"-0000000000000001-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /update: status %d", resp.StatusCode)
	}
	var tr traceResponse
	if code := getJSON(t, ts.URL+"/traces/"+id, &tr); code != http.StatusOK {
		t.Fatalf("GET /traces/%s: status %d", id, code)
	}
	for _, want := range []string{"sample", "reconstruct", "snapshot.build", "persist", "swap"} {
		found := false
		for _, sp := range tr.Spans {
			if sp.Name == want && sp.DurationMs > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("update trace lacks a non-zero %q span: %+v", want, tr.Spans)
		}
	}
}

// driftAfter flags unconditionally once calibrated; used to force an
// auto-update from served locate traffic.
type driftAfter struct{}

func (driftAfter) Observe(float64) bool { return true }
func (driftAfter) Score() float64       { return 2 }
func (driftAfter) Reset()               {}

// TestServeAutoUpdateTraceUnderHammer is the acceptance path: locate
// traffic hammers a monitored durable site from several goroutines
// (updates swap snapshots mid-flight under -race) until drift triggers
// an auto-update, whose forced trace must then be retrievable at
// GET /traces/{id} with a span tree covering detect → sample →
// reconstruct → persist → swap, all with non-zero durations.
func TestServeAutoUpdateTraceUnderHammer(t *testing.T) {
	s := newServer(0)
	st := withMonitor(tracedOfficeSite(t, s, "default", 1),
		iupdater.WithDriftDetector(driftAfter{}),
		iupdater.WithDriftHysteresis(3),
		iupdater.WithSynchronousUpdates(),
	)
	if err := s.addSite("default", st); err != nil {
		t.Fatal(err)
	}
	defer s.fleet.Close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Hammer /locate from four goroutines; the monitor's synchronous
	// auto-update publishes mid-traffic.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tb := testbedOf(st)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rss := tb.MeasureOnline(1+float64(g), 2, time.Duration(i)*time.Second)
				if _, err := postStatus(ts.URL+"/locate", map[string]any{"rss": rss}); err != nil {
					return
				}
			}
		}(g)
	}
	var drift iupdater.MonitorStats
	deadline := time.Now().Add(30 * time.Second)
	for drift.UpdatesCompleted == 0 && time.Now().Before(deadline) {
		getJSON(t, ts.URL+"/drift", &drift)
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if drift.UpdatesCompleted == 0 {
		t.Fatalf("no auto-update completed: %+v", drift)
	}
	if drift.LastUpdateTraceID == "" {
		t.Fatal("drift stats carry no auto-update trace ID")
	}
	var tr traceResponse
	if code := getJSON(t, ts.URL+"/traces/"+drift.LastUpdateTraceID, &tr); code != http.StatusOK {
		t.Fatalf("GET /traces/%s: status %d", drift.LastUpdateTraceID, code)
	}
	if !tr.Forced {
		t.Error("auto-update trace not forced")
	}
	for _, want := range []string{"detect", "sample", "reconstruct", "persist", "swap"} {
		found := false
		for _, sp := range tr.Spans {
			if sp.Name == want && sp.DurationMs > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("auto-update trace lacks a non-zero %q span: %+v", want, tr.Spans)
		}
	}
}

// TestServeAccessLog asserts the -access-log line shape: method,
// route, site, status, duration and trace ID per request.
func TestServeAccessLog(t *testing.T) {
	s := newServer(0)
	if err := s.addSite("default", newOfficeSite(t, 1)); err != nil {
		t.Fatal(err)
	}
	defer s.fleet.Close()
	var buf bytes.Buffer
	s.access = log.New(&buf, "", 0)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/sites/nope/drift", nil); code != http.StatusNotFound {
		t.Fatalf("GET /sites/nope/drift: status %d, want 404", code)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	for _, want := range []string{"method=GET", "route=/healthz", "site=default", "status=200", "dur=", "trace="} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("access line %q lacks %q", lines[0], want)
		}
	}
	for _, want := range []string{"route=/sites/{site}/drift", "site=nope", "status=404"} {
		if !strings.Contains(lines[1], want) {
			t.Errorf("access line %q lacks %q", lines[1], want)
		}
	}
	// The logged trace ID matches the response header, so a slow line
	// in the log can be looked up under /traces.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	third := strings.Split(strings.TrimSpace(buf.String()), "\n")[2]
	if want := fmt.Sprintf("trace=%s", resp.Header.Get("Iupdater-Trace-Id")); !strings.Contains(third, want) {
		t.Errorf("access line %q lacks %q", third, want)
	}
}

// TestRouteName pins the pattern-to-path-key folding the sampling
// policy relies on.
func TestRouteName(t *testing.T) {
	for pattern, want := range map[string]string{
		"/locate":               "http.locate",
		"/sites/{site}/locate":  "http.locate",
		"/sites/{site}/records": "http.records",
		"/sites/{site}":         "http.site",
		"/traces/{id}":          "http.traces/id",
		"/healthz":              "http.healthz",
	} {
		if got := routeName(pattern); got != want {
			t.Errorf("routeName(%q) = %q, want %q", pattern, got, want)
		}
	}
}

// TestServeTracerUnsampledIsCheap sanity-checks the default serve
// tracer policy: a flood of fast requests retains nothing (no head
// sampling, thresholds unmet), so the rings stay useful for the rare
// slow or forced capture.
func TestServeTracerUnsampledIsCheap(t *testing.T) {
	tracer := newServeTracer(0)
	for i := 0; i < 100; i++ {
		tr := tracer.Start("http.locate", "default")
		tr.StartSpan("omp.solve").End()
		tr.Finish()
	}
	if st := tracer.Stats(); st.Started != 100 || st.Retained != 0 {
		t.Fatalf("stats = %+v, want 100 started, 0 retained", tracer.Stats())
	}
	// Long-poll paths are exempt from slow capture entirely.
	tr := tracer.Start("http.records", "default")
	time.Sleep(60 * time.Millisecond) // over the default 50 ms slow threshold
	tr.Finish()
	if st := tracer.Stats(); st.Retained != 0 {
		t.Fatalf("parked long-poll retained: %+v", st)
	}
}
