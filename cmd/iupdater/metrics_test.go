package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iupdater"
)

// postStatus is postJSON without the test dependency, callable from the
// hammer goroutines (t.Fatal must not run off the test goroutine).
func postStatus(url string, body any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// promSample is one parsed exposition sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// seriesKey identifies a series by name plus sorted labels, optionally
// dropping one label (used to group histogram buckets across le).
func (s promSample) seriesKey(drop string) string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		if k != drop {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.name)
	for _, k := range keys {
		fmt.Fprintf(&b, ",%s=%s", k, s.labels[k])
	}
	return b.String()
}

// parseExposition parses Prometheus text format 0.0.4, failing the test
// on any malformed line — undecodable label escapes included.
func parseExposition(t *testing.T, body string) (samples []promSample, help, typ map[string]string) {
	t.Helper()
	help, typ = make(map[string]string), make(map[string]string)
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, found := strings.Cut(rest, " ")
			if !found || name == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			if _, dup := help[name]; dup {
				t.Errorf("line %d: duplicate HELP for %s", ln+1, name)
			}
			help[name] = text
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, found := strings.Cut(rest, " ")
			if !found || name == "" {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if _, dup := typ[name]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			typ[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		samples = append(samples, parseSampleLine(t, ln+1, line))
	}
	return samples, help, typ
}

func parseSampleLine(t *testing.T, ln int, line string) promSample {
	t.Helper()
	s := promSample{labels: make(map[string]string)}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		t.Fatalf("line %d: no value separator: %q", ln, line)
	} else {
		s.name = rest[:i]
		if rest[i] == '{' {
			rest = rest[i+1:]
			for {
				eq := strings.IndexByte(rest, '=')
				if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
					t.Fatalf("line %d: malformed label in %q", ln, line)
				}
				name := rest[:eq]
				rest = rest[eq+2:]
				var val strings.Builder
				for {
					if rest == "" {
						t.Fatalf("line %d: unterminated label value in %q", ln, line)
					}
					c := rest[0]
					if c == '"' {
						rest = rest[1:]
						break
					}
					if c == '\\' {
						if len(rest) < 2 {
							t.Fatalf("line %d: dangling escape in %q", ln, line)
						}
						switch rest[1] {
						case '\\':
							val.WriteByte('\\')
						case '"':
							val.WriteByte('"')
						case 'n':
							val.WriteByte('\n')
						default:
							t.Fatalf("line %d: invalid escape \\%c in %q", ln, rest[1], line)
						}
						rest = rest[2:]
						continue
					}
					val.WriteByte(c)
					rest = rest[1:]
				}
				s.labels[name] = val.String()
				if strings.HasPrefix(rest, ",") {
					rest = rest[1:]
					continue
				}
				if strings.HasPrefix(rest, "}") {
					rest = rest[1:]
					break
				}
				t.Fatalf("line %d: malformed label list in %q", ln, line)
			}
		} else {
			rest = rest[i:]
		}
	}
	rest = strings.TrimPrefix(rest, " ")
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		t.Fatalf("line %d: value %q: %v", ln, rest, err)
	}
	s.value = v
	return s
}

// lintExposition enforces the format invariants a Prometheus scraper
// relies on: every sample belongs to a family with exactly one HELP and
// one valid TYPE, each family is one contiguous group with its HELP and
// TYPE ahead of its samples, histogram bucket series are cumulative
// with a closing +Inf bucket that equals _count and come with a _sum,
// counters never go negative, and no series appears twice.
func lintExposition(t *testing.T, body string) (samples []promSample, typ map[string]string) {
	t.Helper()
	samples, help, typs := parseExposition(t, body)
	// family resolves a sample name back to its declared family,
	// stripping the histogram suffixes.
	family := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suf); ok && typs[base] == "histogram" {
				return base
			}
		}
		return name
	}
	for name, kind := range typs {
		if kind != "counter" && kind != "gauge" && kind != "histogram" {
			t.Errorf("family %s: invalid TYPE %q", name, kind)
		}
		if _, ok := help[name]; !ok {
			t.Errorf("family %s: TYPE without HELP", name)
		}
	}
	for name := range help {
		if _, ok := typs[name]; !ok {
			t.Errorf("family %s: HELP without TYPE", name)
		}
	}
	// Grouping: a family's lines are contiguous, and its HELP and TYPE
	// come before its first sample.
	cur, sampled, done := "", false, make(map[string]bool)
	for ln, line := range strings.Split(body, "\n") {
		var fam string
		header := strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ")
		switch {
		case header:
			fam, _, _ = strings.Cut(line[len("# HELP "):], " ")
		case line == "" || strings.HasPrefix(line, "#"):
			continue
		default:
			fam = family(parseSampleLine(t, ln+1, line).name)
		}
		if fam != cur {
			if done[fam] {
				t.Errorf("line %d: family %s is split: its lines are not one group", ln+1, fam)
			}
			done[cur], cur, sampled = true, fam, false
		}
		if header && sampled {
			t.Errorf("line %d: family %s has a header after its samples", ln+1, fam)
		}
		sampled = sampled || !header
	}
	seen := make(map[string]bool)
	for _, s := range samples {
		fam := family(s.name)
		if _, ok := typs[fam]; !ok {
			t.Errorf("sample %s: no TYPE declared for family %s", s.name, fam)
		}
		if typs[fam] == "counter" && s.value < 0 {
			t.Errorf("counter %s: negative value %g", s.name, s.value)
		}
		key := s.seriesKey("")
		if seen[key] {
			t.Errorf("duplicate series %s", key)
		}
		seen[key] = true
	}
	// Histogram invariants, per bucket series (same labels minus le).
	buckets := make(map[string][]promSample)
	scalars := make(map[string]float64)
	for _, s := range samples {
		fam := family(s.name)
		if typs[fam] != "histogram" {
			continue
		}
		if strings.HasSuffix(s.name, "_bucket") {
			buckets[s.seriesKey("le")] = append(buckets[s.seriesKey("le")], s)
		} else {
			scalars[s.seriesKey("")] = s.value
		}
	}
	for key, bs := range buckets {
		prevLe := math.Inf(-1)
		prevCum := -1.0
		for _, b := range bs {
			leStr, ok := b.labels["le"]
			if !ok {
				t.Fatalf("series %s: bucket without le label", key)
			}
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				t.Fatalf("series %s: le %q: %v", key, leStr, err)
			}
			if le <= prevLe {
				t.Errorf("series %s: le %g out of order after %g", key, le, prevLe)
			}
			if b.value < prevCum {
				t.Errorf("series %s: bucket le=%g count %g below previous %g (not cumulative)", key, le, b.value, prevCum)
			}
			prevLe, prevCum = le, b.value
		}
		if !math.IsInf(prevLe, 1) {
			t.Errorf("series %s: no +Inf bucket", key)
		}
		// The series key is "<name>_bucket,<labels>"; swap the suffix to
		// find the matching _count and _sum series.
		base := strings.TrimSuffix(bs[0].name, "_bucket")
		labelPart := strings.TrimPrefix(key, bs[0].name)
		count, ok := scalars[base+"_count"+labelPart]
		if !ok {
			t.Errorf("series %s: missing _count", key)
		} else if count != prevCum {
			t.Errorf("series %s: +Inf bucket %g != _count %g", key, prevCum, count)
		}
		if _, ok := scalars[base+"_sum"+labelPart]; !ok {
			t.Errorf("series %s: missing _sum", key)
		}
	}
	return samples, typs
}

// metricFamilies is the catalog GET /metrics must expose for the fleet
// (doc.go "Observability" section); the lint asserts presence of every
// family even when a site contributes no sample to it.
var metricFamilies = []string{
	"iupdater_locate_latency_seconds",
	"iupdater_snapshot_version",
	"iupdater_search_queries_total",
	"iupdater_search_column_evals_total",
	"iupdater_search_shard_evals_total",
	"iupdater_drift_residual_db",
	"iupdater_drift_score",
	"iupdater_drift_cooldown_remaining",
	"iupdater_drift_queries_total",
	"iupdater_drift_detections_total",
	"iupdater_drift_updates_triggered_total",
	"iupdater_drift_updates_completed_total",
	"iupdater_drift_update_errors_total",
	"iupdater_drift_detections_suppressed_total",
	"iupdater_drift_link_error_db",
	"iupdater_store_bytes",
	"iupdater_store_records",
	"iupdater_store_compactions_total",
	"iupdater_sites",
	"iupdater_site_evictions_total",
	"iupdater_site_rehydrations_total",
	"iupdater_site_rehydration_seconds",
	"iupdater_replica_applied_version",
	"iupdater_replica_leader_version",
	"iupdater_replica_lag_versions",
	"iupdater_replica_reconnects_total",
	"iupdater_replica_rebootstraps_total",
	"iupdater_update_duration_seconds",
	"iupdater_publish_total",
	"iupdater_traces_started_total",
	"iupdater_traces_retained_total",
	"iupdater_traces_slow_total",
	"iupdater_build_info",
	"iupdater_goroutines",
	"iupdater_heap_bytes",
	"iupdater_gc_pause_seconds_total",
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("GET /metrics: Content-Type %q, want text format 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// findSample returns the first sample matching name and the given
// label subset.
func findSample(samples []promSample, name string, labels map[string]string) (promSample, bool) {
	for _, s := range samples {
		if s.name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s, true
		}
	}
	return promSample{}, false
}

// TestServeMetricsExposition drives a two-site fleet (one monitored)
// through locates and an update, then scrapes /metrics and verifies the
// exposition is well-formed and covers every catalog family, with the
// expected per-site samples.
func TestServeMetricsExposition(t *testing.T) {
	def := withMonitor(newOfficeSite(t, 1), iupdater.WithSynchronousUpdates())
	annex := newOfficeSite(t, 2)
	s := newServer(0)
	if err := s.addSite("default", def); err != nil {
		t.Fatal(err)
	}
	if err := s.addSite("annex", annex); err != nil {
		t.Fatal(err)
	}
	defer s.fleet.Close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	cx, cy := testbedOf(def).CellCenter(13)
	rss := testbedOf(def).MeasureOnline(cx, cy, time.Hour)
	for i := 0; i < 5; i++ {
		if code := postJSON(t, ts.URL+"/sites/default/locate", locateRequest{RSS: rss}, nil); code != http.StatusOK {
			t.Fatalf("locate status %d", code)
		}
	}
	if code := postJSON(t, ts.URL+"/sites/annex/locate", locateRequest{RSS: rss}, nil); code != http.StatusOK {
		t.Fatalf("annex locate status %d", code)
	}
	if code := postJSON(t, ts.URL+"/sites/default/update", updateRequest{Days: 30}, nil); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}

	samples, typs := lintExposition(t, scrapeMetrics(t, ts.URL))
	for _, fam := range metricFamilies {
		if _, ok := typs[fam]; !ok {
			t.Errorf("family %s missing from exposition", fam)
		}
	}

	for _, name := range []string{"default", "annex"} {
		lbl := map[string]string{"site": name}
		if s, ok := findSample(samples, "iupdater_locate_latency_seconds_count", lbl); !ok || s.value < 1 {
			t.Errorf("site %s: locate latency count %v (found %v), want >= 1", name, s.value, ok)
		}
		if _, ok := findSample(samples, "iupdater_snapshot_version", lbl); !ok {
			t.Errorf("site %s: no snapshot version sample", name)
		}
		if s, ok := findSample(samples, "iupdater_search_queries_total", lbl); !ok || s.labels["tier"] != "pruned" {
			t.Errorf("site %s: search queries sample %+v (found %v), want tier=pruned", name, s, ok)
		}
	}
	if s, ok := findSample(samples, "iupdater_snapshot_version", map[string]string{"site": "default"}); !ok || s.value != 2 {
		t.Errorf("default snapshot version %v (found %v), want 2 after the update", s.value, ok)
	}
	// Drift families sample only the monitored site.
	if s, ok := findSample(samples, "iupdater_drift_cooldown_remaining", map[string]string{"site": "default"}); !ok || s.value < 0 {
		t.Errorf("default cooldown sample %v (found %v)", s.value, ok)
	}
	if _, ok := findSample(samples, "iupdater_drift_queries_total", map[string]string{"site": "annex"}); ok {
		t.Errorf("unmonitored annex has drift samples")
	}
	// In-memory sites carry no store samples, but the families stay
	// declared (checked above).
	if _, ok := findSample(samples, "iupdater_store_bytes", nil); ok {
		t.Errorf("in-memory fleet has store samples")
	}
	// Fleet lifecycle families: both sites resident, nothing parked and
	// no LRU churn in this in-memory fleet.
	if s, ok := findSample(samples, "iupdater_sites", map[string]string{"state": "resident"}); !ok || s.value != 2 {
		t.Errorf("resident sites %v (found %v), want 2", s.value, ok)
	}
	if s, ok := findSample(samples, "iupdater_sites", map[string]string{"state": "parked"}); !ok || s.value != 0 {
		t.Errorf("parked sites %v (found %v), want 0", s.value, ok)
	}
	if s, ok := findSample(samples, "iupdater_site_evictions_total", nil); !ok || s.value != 0 {
		t.Errorf("evictions %v (found %v), want 0", s.value, ok)
	}
	if s, ok := findSample(samples, "iupdater_site_rehydration_seconds_count", nil); !ok || s.value != 0 {
		t.Errorf("rehydration count %v (found %v), want 0", s.value, ok)
	}
}

// TestServeMetricsUnderHammer scrapes /metrics in a loop while both
// sites take concurrent locate traffic and one takes updates — the
// update-while-locate pattern — and lints every scrape. Run under
// -race this also proves the handler's metric reads do not race the
// hot-path writers.
func TestServeMetricsUnderHammer(t *testing.T) {
	def := newOfficeSite(t, 1)
	annex := newOfficeSite(t, 2)
	s := newServer(0)
	if err := s.addSite("default", def); err != nil {
		t.Fatal(err)
	}
	if err := s.addSite("annex", annex); err != nil {
		t.Fatal(err)
	}
	defer s.fleet.Close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	cx, cy := testbedOf(def).CellCenter(13)
	rss := testbedOf(def).MeasureOnline(cx, cy, time.Hour)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for _, path := range []string{"/sites/default/locate", "/sites/annex/locate"} {
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(path string) {
				defer wg.Done()
				for !stop.Load() {
					code, err := postStatus(ts.URL+path, locateRequest{RSS: rss})
					if err != nil || code != http.StatusOK {
						errc <- fmt.Errorf("POST %s: status %d, err %v", path, code, err)
						return
					}
				}
			}(path)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for u := 1; u <= 3; u++ {
			code, err := postStatus(ts.URL+"/sites/default/update", updateRequest{Days: float64(10 * u)})
			if err != nil || code != http.StatusOK {
				errc <- fmt.Errorf("update %d: status %d, err %v", u, code, err)
				return
			}
		}
	}()

	deadline := time.Now().Add(20 * time.Second)
	var scrapes int
	for def.Deployment.Version() != 4 && time.Now().Before(deadline) {
		lintExposition(t, scrapeMetrics(t, ts.URL))
		scrapes++
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if v := def.Deployment.Version(); v != 4 {
		t.Fatalf("default version %d after hammer, want 4", v)
	}
	if scrapes == 0 {
		t.Fatal("no scrapes completed during the hammer")
	}
	// One last quiet scrape: locate counts must reflect the traffic.
	samples, _ := lintExposition(t, scrapeMetrics(t, ts.URL))
	for _, name := range []string{"default", "annex"} {
		if s, ok := findSample(samples, "iupdater_locate_latency_seconds_count", map[string]string{"site": name}); !ok || s.value < 1 {
			t.Errorf("site %s: latency count %v (found %v) after hammer", name, s.value, ok)
		}
	}
}

// TestServeMetricsKeepParkedSites: on a fleet that keeps one site
// resident, the site that was parked keeps its locate, update-stage,
// publish and compaction series, and the scrape does not rehydrate it.
func TestServeMetricsKeepParkedSites(t *testing.T) {
	s := newServer(0)
	s.fleet = iupdater.NewFleet(iupdater.WithResidentLimit(1))
	defer s.fleet.Close()
	dataDir := t.TempDir()
	var cfgs []iupdater.SiteConfig
	for i, name := range []string{"a", "b"} {
		cfg, _, err := buildSite(siteSpec{name: name, env: "office"}, uint64(1+i), dataDir, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.addSite(name, cfg); err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	cx, cy := testbedOf(cfgs[0]).CellCenter(20)
	rss := testbedOf(cfgs[0]).MeasureOnline(cx, cy, time.Hour)
	if code := postJSON(t, ts.URL+"/sites/a/locate", locateRequest{RSS: rss}, nil); code != http.StatusOK {
		t.Fatalf("a locate: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/sites/a/update", updateRequest{Days: 10}, nil); code != http.StatusOK {
		t.Fatalf("a update: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/sites/b/locate", locateRequest{RSS: rss}, nil); code != http.StatusOK {
		t.Fatalf("b locate: status %d", code)
	}
	a, _ := s.fleet.Site("a")
	if a.Hydrated() {
		t.Fatal("site a is still resident after b's locate")
	}
	rehydrations := s.fleet.Stats().Rehydrations

	samples, _ := lintExposition(t, scrapeMetrics(t, ts.URL))
	for _, name := range []string{"a", "b"} {
		lbl := map[string]string{"site": name}
		if s, ok := findSample(samples, "iupdater_locate_latency_seconds_count", lbl); !ok || s.value != 1 {
			t.Errorf("site %s: locate latency count %v (found %v), want 1", name, s.value, ok)
		}
		if _, ok := findSample(samples, "iupdater_store_compactions_total", lbl); !ok {
			t.Errorf("site %s: no store compactions sample", name)
		}
	}
	for _, stage := range iupdater.UpdateStages() {
		lbl := map[string]string{"site": "a", "stage": stage}
		if s, ok := findSample(samples, "iupdater_update_duration_seconds_count", lbl); !ok || s.value != 1 {
			t.Errorf("parked site a: %s stage count %v (found %v), want 1", stage, s.value, ok)
		}
	}
	if s, ok := findSample(samples, "iupdater_publish_total", map[string]string{"site": "a"}); !ok || s.value != 1 {
		t.Errorf("parked site a: publishes %v (found %v), want 1", s.value, ok)
	}
	if s, ok := findSample(samples, "iupdater_sites", map[string]string{"state": "parked"}); !ok || s.value != 1 {
		t.Errorf("parked sites %v (found %v), want 1", s.value, ok)
	}
	if a.Hydrated() || s.fleet.Stats().Rehydrations != rehydrations {
		t.Error("the scrape rehydrated the parked site")
	}
}
