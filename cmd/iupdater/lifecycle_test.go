package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"iupdater"
)

// doJSON issues one request with an arbitrary method, optional JSON
// body and optional bearer token, decoding a JSON response when out is
// non-nil.
func doJSON(t *testing.T, method, url, token string, body, out any) (int, http.Header) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// TestServeSiteLifecycle drives the dynamic site surface end to end:
// PUT creates a servable site, its token gates the mutating routes,
// DELETE tears it down, and the usual error shapes (400/404/409) come
// back for bad names, duplicates and unknown sites.
func TestServeSiteLifecycle(t *testing.T) {
	s := newServer(0)
	if err := s.addSite("default", newOfficeSite(t, 1)); err != nil {
		t.Fatal(err)
	}
	defer s.fleet.Close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Create a tokened site over the API.
	var created iupdater.SiteSummary
	if code, _ := doJSON(t, http.MethodPut, ts.URL+"/sites/annex", "",
		sitePutRequest{Env: "office", Seed: 3, Token: "s3cret"}, &created); code != http.StatusCreated {
		t.Fatalf("PUT /sites/annex: status %d", code)
	}
	if created.Name != "annex" || created.Version != 1 || !created.Hydrated {
		t.Fatalf("created summary %+v", created)
	}

	// It serves immediately, and shows up in the fleet listing.
	tb := iupdater.NewTestbed(iupdater.Office(), 3)
	cx, cy := tb.CellCenter(10)
	rss := tb.MeasureOnline(cx, cy, time.Hour)
	if code := postJSON(t, ts.URL+"/sites/annex/locate", locateRequest{RSS: rss}, nil); code != http.StatusOK {
		t.Fatalf("locate on created site: status %d", code)
	}
	var list sitesResponse
	if code := getJSON(t, ts.URL+"/sites", &list); code != http.StatusOK || len(list.Sites) != 2 {
		t.Fatalf("GET /sites: status %d, %d sites", code, len(list.Sites))
	}

	// The token gates mutating routes: update and rollback 401 without
	// it, succeed with it. Reads stay open.
	if code, hdr := doJSON(t, http.MethodPost, ts.URL+"/sites/annex/update", "", updateRequest{Days: 10}, nil); code != http.StatusUnauthorized {
		t.Fatalf("untokened update: status %d", code)
	} else if hdr.Get("WWW-Authenticate") != "Bearer" {
		t.Fatalf("401 WWW-Authenticate %q", hdr.Get("WWW-Authenticate"))
	}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/sites/annex/update", "wrong", updateRequest{Days: 10}, nil); code != http.StatusUnauthorized {
		t.Fatalf("wrong-token update: status %d", code)
	}
	var up updateResponse
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/sites/annex/update", "s3cret", updateRequest{Days: 10}, &up); code != http.StatusOK || up.Version != 2 {
		t.Fatalf("tokened update: status %d version %d", code, up.Version)
	}
	if code := getJSON(t, ts.URL+"/sites/annex/snapshot", nil); code != http.StatusOK {
		t.Fatalf("read with token set: status %d", code)
	}

	// Error shapes.
	if code, _ := doJSON(t, http.MethodPut, ts.URL+"/sites/annex", "", sitePutRequest{Env: "office"}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate PUT: status %d", code)
	}
	if code, _ := doJSON(t, http.MethodPut, ts.URL+"/sites/bad.name", "", sitePutRequest{Env: "office"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad name PUT: status %d", code)
	}
	if code, _ := doJSON(t, http.MethodPut, ts.URL+"/sites/ghost", "", sitePutRequest{Env: "atlantis"}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown env PUT: status %d", code)
	}
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/sites/nosuch", "", nil, nil); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown: status %d", code)
	}

	// Delete is gated by the same token; afterwards the site is gone
	// from routing and the fleet alike.
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/sites/annex", "", nil, nil); code != http.StatusUnauthorized {
		t.Fatalf("untokened DELETE: status %d", code)
	}
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/sites/annex", "s3cret", nil, nil); code != http.StatusOK {
		t.Fatalf("DELETE: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/sites/annex", nil); code != http.StatusNotFound {
		t.Fatalf("GET deleted site: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/sites/annex/locate", locateRequest{RSS: rss}, nil); code != http.StatusNotFound {
		t.Fatalf("locate on deleted site: status %d", code)
	}

	// Removing the default site kills the alias routes with a clear 404.
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/sites/default", "", nil, nil); code != http.StatusOK {
		t.Fatalf("DELETE default: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/locate", locateRequest{RSS: rss}, nil); code != http.StatusNotFound {
		t.Fatalf("alias locate after default removal: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz with no default: status %d", code)
	}
}

// TestServeDefaultSiteRemovalRace: every alias-route request resolves
// the default site's name (trace label, access log, routing) while
// DELETE /sites/default may remove that site. The resolvers are called
// from goroutines directly, not through an httptest server, whose
// connection bookkeeping adds happens-before edges that would hide a
// race from -race. Afterwards the aliases answer 404 until the same
// name is registered again.
func TestServeDefaultSiteRemovalRace(t *testing.T) {
	s := newServer(0)
	if err := s.addSite("default", newOfficeSite(t, 1)); err != nil {
		t.Fatal(err)
	}
	defer s.fleet.Close()
	alias := httptest.NewRequest(http.MethodGet, "/drift", nil)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if name := s.siteName(alias); name != "default" {
					t.Errorf("alias site name %q, want default", name)
					return
				}
				s.resolve(httptest.NewRecorder(), alias, read)
			}
		}()
	}
	del := httptest.NewRequest(http.MethodDelete, "/sites/default", nil)
	del.SetPathValue("site", "default")
	rec := httptest.NewRecorder()
	s.handleSiteDelete(rec, del)
	wg.Wait()
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE default: status %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	if _, ok := s.resolve(rec, alias, read); ok || rec.Code != http.StatusNotFound {
		t.Fatalf("alias after default removal: resolved %v, status %d, want 404", ok, rec.Code)
	}
	// Another site does not take the alias over; the default's name
	// coming back does.
	if err := s.addSite("annex", newOfficeSite(t, 2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.resolve(httptest.NewRecorder(), alias, read); ok {
		t.Fatal("alias resolved to a site registered after the default")
	}
	if err := s.addSite("default", newOfficeSite(t, 3)); err != nil {
		t.Fatal(err)
	}
	if tg, ok := s.resolve(httptest.NewRecorder(), alias, read); !ok || tg.name != "default" {
		t.Fatalf("alias after re-registering default: resolved %v to %q", ok, tg.name)
	}
}

// TestServeDefaultSiteClaimRace: the first registration claims the
// default while requests already resolve it — the case of a server
// whose first site arrives by PUT /sites/{name}. Readers see either no
// default or the first site, never a later one.
func TestServeDefaultSiteClaimRace(t *testing.T) {
	s := newServer(0)
	defer s.fleet.Close()
	first, second := newOfficeSite(t, 1), newOfficeSite(t, 2)
	alias := httptest.NewRequest(http.MethodGet, "/snapshot", nil)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if name := s.siteName(alias); name != "" && name != "first" {
					t.Errorf("alias site name %q, want \"\" or first", name)
					return
				}
			}
		}()
	}
	if err := s.addSite("first", first); err != nil {
		t.Fatal(err)
	}
	if err := s.addSite("second", second); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if name := s.siteName(alias); name != "first" {
		t.Fatalf("default site %q, want first", name)
	}
}

// TestServeReplicaLifecycleConflict: lifecycle mutations on a replica
// site answer 409 — a follower is torn down by stopping the follow, not
// through the leader-facing API.
func TestServeReplicaLifecycleConflict(t *testing.T) {
	leaderTS, _ := newDurableServer(t, 0)
	rep, err := iupdater.OpenReplica(leaderTS.URL+"/records",
		iupdater.WithReplicaWait(200*time.Millisecond),
		iupdater.WithReplicaBackoff(5*time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(0)
	if _, err := s.fleet.AddReplica("mirror", rep); err != nil {
		t.Fatal(err)
	}
	defer s.fleet.Close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/sites/mirror", "", nil, nil); code != http.StatusConflict {
		t.Fatalf("DELETE replica: status %d", code)
	}
	if code, _ := doJSON(t, http.MethodPut, ts.URL+"/sites/mirror", "", sitePutRequest{Env: "office"}, nil); code != http.StatusConflict {
		t.Fatalf("PUT over replica name: status %d", code)
	}
}

// TestServeManifestRestart: sites created over the API are recorded in
// the fleet manifest and re-created — warm, with their tokens — by the
// next serve life over the same data directory.
func TestServeManifestRestart(t *testing.T) {
	dataDir := t.TempDir()
	openManifest := func() *iupdater.Store {
		m, err := iupdater.OpenStore(dataDir + "/fleet.manifest")
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	s1 := newServer(0)
	s1.dataDir, s1.defEnv = dataDir, "office"
	s1.manifest = openManifest()
	ts1 := httptest.NewServer(s1.handler())
	var created iupdater.SiteSummary
	if code, _ := doJSON(t, http.MethodPut, ts1.URL+"/sites/branch", "",
		sitePutRequest{Seed: 9, Token: "tok"}, &created); code != http.StatusCreated {
		t.Fatalf("PUT: status %d", code)
	}
	if !created.Durable {
		t.Fatal("API site under -data-dir is not durable")
	}
	var up updateResponse
	if code, _ := doJSON(t, http.MethodPost, ts1.URL+"/sites/branch/update", "tok", updateRequest{Days: 5}, &up); code != http.StatusOK || up.Version != 2 {
		t.Fatalf("update: status %d v%d", code, up.Version)
	}
	ts1.Close()
	if err := s1.fleet.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s1.manifest.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: the manifest re-creates the site, warm-started at the
	// version the first life published, token still enforced.
	s2 := newServer(0)
	s2.dataDir, s2.defEnv = dataDir, "office"
	s2.manifest = openManifest()
	if err := s2.restoreManifestSites(); err != nil {
		t.Fatal(err)
	}
	defer s2.fleet.Close()
	defer s2.manifest.Close()
	ts2 := httptest.NewServer(s2.handler())
	defer ts2.Close()

	var sum iupdater.SiteSummary
	if code := getJSON(t, ts2.URL+"/sites/branch", &sum); code != http.StatusOK {
		t.Fatalf("GET restored site: status %d", code)
	}
	if sum.Version != 2 || !sum.Durable {
		t.Fatalf("restored summary %+v, want warm start at v2", sum)
	}
	if code, _ := doJSON(t, http.MethodPost, ts2.URL+"/sites/branch/rollback?version=1", "", nil, nil); code != http.StatusUnauthorized {
		t.Fatalf("untokened rollback after restart: status %d", code)
	}

	// DELETE drops the manifest entry: a third life restores nothing.
	if code, _ := doJSON(t, http.MethodDelete, ts2.URL+"/sites/branch", "tok", nil, nil); code != http.StatusOK {
		t.Fatalf("DELETE: status %d", code)
	}
	s3 := newServer(0)
	s3.dataDir, s3.defEnv = dataDir, "office"
	s3.manifest = openManifest()
	if err := s3.restoreManifestSites(); err != nil {
		t.Fatal(err)
	}
	defer s3.fleet.Close()
	defer s3.manifest.Close()
	if _, ok := s3.fleet.Site("branch"); ok {
		t.Fatal("deleted site came back after restart")
	}
}
