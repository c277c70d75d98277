package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"iupdater"
)

// wireFixture serves a fixed fleet — a monitored durable writer after
// an update, an in-memory writer and a caught-up replica of the first —
// and returns what serve answers for it. wire holds the JSON bodies of
// /sites, /sites/{name} for each site, /drift and /snapshot's record.
// metrics holds the /metrics lines with the sample values stripped: the
// HELP and TYPE lines and the series keys. Everything is deterministic
// per seed except the replica's source URL, which carries the test
// server's port and is rewritten to a fixed host, and the build_info
// labels, which name the toolchain.
func wireFixture(t *testing.T) (wire, metrics string) {
	t.Helper()
	s := newServer(0)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.fleet.Close() })
	hq, _, err := buildSite(siteSpec{name: "hq", env: "office"}, 7, t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.addSite("hq", withMonitor(hq)); err != nil {
		t.Fatal(err)
	}
	if err := s.addSite("mem", newOfficeSite(t, 2)); err != nil {
		t.Fatal(err)
	}

	tb := testbedOf(hq)
	locate := func(cells []int, at time.Duration) {
		for _, cell := range cells {
			cx, cy := tb.CellCenter(cell)
			rss := tb.MeasureOnline(cx, cy, at)
			for _, name := range []string{"hq", "mem"} {
				if code := postJSON(t, ts.URL+"/sites/"+name+"/locate", locateRequest{RSS: rss}, nil); code != http.StatusOK {
					t.Fatalf("%s locate: status %d", name, code)
				}
			}
		}
	}
	locate([]int{5, 40, 77}, time.Hour)
	if code := postJSON(t, ts.URL+"/sites/hq/update", updateRequest{Days: 30}, nil); code != http.StatusOK {
		t.Fatalf("hq update: status %d", code)
	}
	locate([]int{12, 63}, 30*24*time.Hour)

	rep, err := iupdater.OpenReplica(ts.URL+"/sites/hq/records",
		iupdater.WithReplicaWait(200*time.Millisecond),
		iupdater.WithReplicaBackoff(5*time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.fleet.AddReplica("branch", rep); err != nil {
		rep.Close()
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := rep.WaitVersion(ctx, 2); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}
	var b strings.Builder
	for _, path := range []string{"/sites", "/sites/hq", "/sites/mem", "/sites/branch", "/drift"} {
		fmt.Fprintf(&b, "GET %s\n%s", path, get(path))
	}
	var snap struct {
		Record json.RawMessage `json:"record"`
	}
	if err := json.Unmarshal([]byte(get("/snapshot")), &snap); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "GET /snapshot: record\n%s\n", snap.Record)
	wire = strings.ReplaceAll(b.String(), ts.URL, "http://leader")

	var m strings.Builder
	for _, line := range strings.Split(get("/metrics"), "\n") {
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "iupdater_build_info{"):
			line = "iupdater_build_info{version,goversion}"
		case !strings.HasPrefix(line, "#"):
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		m.WriteString(line + "\n")
	}
	return wire, m.String()
}

// TestServeWireGolden pins serve's wire format: the JSON that /sites,
// /sites/{name}, /drift and /snapshot answer for the fixture fleet, and
// the family and series list of /metrics, byte for byte against
// testdata.
func TestServeWireGolden(t *testing.T) {
	wire, metrics := wireFixture(t)
	for _, g := range []struct{ file, got string }{
		{"testdata/wire.golden", wire},
		{"testdata/metrics.golden", metrics},
	} {
		want, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatal(err)
		}
		if g.got == string(want) {
			continue
		}
		got, exp := strings.Split(g.got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) || i < len(exp); i++ {
			var gl, el string
			if i < len(got) {
				gl = got[i]
			}
			if i < len(exp) {
				el = exp[i]
			}
			if gl != el {
				t.Errorf("%s: first difference at line %d:\n got %s\nwant %s", g.file, i+1, gl, el)
				break
			}
		}
	}
}
