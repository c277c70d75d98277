package main

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	runtimemetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"iupdater"
	"iupdater/internal/obs"
	"iupdater/internal/trace"
)

// site is serve's per-site state that the fleet does not own: the
// testbed standing in for the site's radio hardware, the simulated clock
// its measurements are taken at, and the bearer token. It rides on the
// fleet Site as its opaque payload (SiteConfig.Payload); replica sites,
// which have neither a testbed nor a token, carry none.
type site struct {
	tb *iupdater.Testbed
	// token, when non-empty, must be presented as a bearer token on the
	// site's mutating routes (update, rollback, delete).
	token string

	// mu guards clock — the simulated elapsed deployment time advanced
	// by testbed-driven updates — and serializes all testbed
	// measurements (the channel simulator is not safe for concurrent
	// use: both POST /update demo requests and the monitor's sampler
	// measure from it).
	mu    sync.Mutex
	clock time.Duration
}

// payload returns serve's per-site state from a SiteConfig.Payload or
// Site.Payload value, nil for a replica site.
func payload(p any) *site {
	st, _ := p.(*site)
	return st
}

// authorize enforces the site's bearer token on mutating routes,
// reporting whether the request may proceed. Sites created without a
// token (the -sites flag path) stay open, preserving the demo surface.
func (st *site) authorize(w http.ResponseWriter, r *http.Request, name string) bool {
	if st == nil || st.token == "" {
		return true
	}
	tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok || subtle.ConstantTimeCompare([]byte(tok), []byte(st.token)) != 1 {
		w.Header().Set("WWW-Authenticate", "Bearer")
		writeError(w, http.StatusUnauthorized,
			fmt.Errorf("site %s requires its bearer token on mutating routes", name))
		return false
	}
	return true
}

// withMonitor has the fleet run a drift monitor on the site: its
// factory builds one whose reference surveys are taken from the site's
// testbed at the site's simulated clock, at registration and again
// whenever the fleet rehydrates the parked site.
func withMonitor(cfg iupdater.SiteConfig, opts ...iupdater.MonitorOption) iupdater.SiteConfig {
	st := payload(cfg.Payload)
	sampler := iupdater.SamplerFunc(func(refs []int) (iupdater.UpdateInputs, error) {
		st.mu.Lock()
		defer st.mu.Unlock()
		xr, _ := st.tb.ReferenceMatrix(st.clock, refs)
		return iupdater.UpdateInputs{
			NoDecrease: st.tb.NoDecreaseMatrix(st.clock),
			Known:      st.tb.Mask(),
			References: xr,
		}, nil
	})
	cfg.MonitorFactory = func(d *iupdater.Deployment) (*iupdater.Monitor, error) {
		return iupdater.NewMonitor(d, sampler, opts...)
	}
	return cfg
}

// server exposes a Fleet of site deployments over HTTP/JSON. The fleet
// is the only site registry: handlers look sites up in it per request.
// Localization queries hit each site's lock-free snapshot path; updates
// are serialized by the owning Deployment's write path. Every site is
// addressable under /sites/{site}/...; the original single-site routes
// (/locate, /update, /snapshot, /drift, /rollback) remain as aliases
// for the default site.
type server struct {
	fleet   *iupdater.Fleet
	workers int
	pprof   bool

	// def names the alias routes' default site: the first site
	// registered, fixed from then on. Removing that site leaves the
	// aliases answering 404 until a site of the same name is registered
	// again.
	def atomic.Pointer[string]

	// Defaults applied to sites created over the API (PUT /sites/{site}),
	// mirroring the serve flags the boot-time sites were built with.
	dataDir    string
	retain     int
	updateConc int
	monitorOn  bool
	defEnv     string

	// manifest, when non-nil, durably records the API-created sites so a
	// restart of serve mode re-creates them (see fleet.manifest under
	// -data-dir). manifestMu serializes read-modify-write of the blob.
	manifest   *iupdater.Store
	manifestMu sync.Mutex

	// tracer records request-scoped span traces across every route (see
	// traces.go); the same tracer is attached to the site deployments in
	// runServe so library pipelines (locate, auto-update, replication)
	// land in the same rings /traces serves.
	tracer *trace.Tracer
	// access, when non-nil, receives one structured line per request.
	access *log.Logger

	// drain is cancelled when graceful shutdown begins (wired to
	// http.Server.RegisterOnShutdown), so parked records long-polls end
	// immediately instead of holding the drain open until their wait
	// deadline.
	drain       context.Context
	cancelDrain context.CancelFunc
}

func newServer(workers int) *server {
	drain, cancelDrain := context.WithCancel(context.Background())
	return &server{
		fleet:       iupdater.NewFleet(),
		workers:     workers,
		tracer:      newServeTracer(0),
		drain:       drain,
		cancelDrain: cancelDrain,
	}
}

// addSite registers a writer site with the fleet, which owns its
// deployment and monitor from here on, including LRU parking. Safe to
// call while the handler is serving.
func (s *server) addSite(name string, cfg iupdater.SiteConfig) error {
	if _, err := s.fleet.AddSite(name, cfg); err != nil {
		return err
	}
	s.claimDefault(name)
	return nil
}

// claimDefault makes name the alias routes' default site unless an
// earlier registration already claimed it.
func (s *server) claimDefault(name string) { s.def.CompareAndSwap(nil, &name) }

// defaultSite returns the alias routes' site name, "" before the first
// registration.
func (s *server) defaultSite() string {
	if name := s.def.Load(); name != nil {
		return *name
	}
	return ""
}

// reader is the read path a Deployment and a Replica share.
type reader interface {
	Snapshot() *iupdater.Snapshot
	LocateLatency() *obs.Histogram
}

// target is one site as a handler serves it, split into writer and
// replica by view.
type target struct {
	name string
	// rd is the serving read path: the deployment or the replica. It is
	// nil for a writer that view found parked without hydrating.
	rd reader
	// d, mon, store and st are the writer's deployment, monitor (nil if
	// unmonitored), durable store (nil in memory) and serve state; all
	// nil on a replica.
	d     *iupdater.Deployment
	mon   *iupdater.Monitor
	store *iupdater.Store
	st    *site
}

// view is the one place a site is split into writer and replica. With
// hydrate, a parked writer is re-materialized from its store (a cold
// site's first request pays the rehydration here); without it, a parked
// writer comes back with no read path, which is how /metrics and
// /healthz look at sites without defeating the LRU.
func view(fs *iupdater.Site, hydrate bool) (target, error) {
	t := target{name: fs.Name()}
	if rep := fs.Replica(); rep != nil {
		t.rd = rep
		return t, nil
	}
	t.st = payload(fs.Payload())
	d, mon := fs.Deployment(), fs.Monitor()
	if hydrate {
		var err error
		if d, mon, err = fs.Hydrate(); err != nil {
			return t, err
		}
	}
	if d != nil {
		t.rd, t.d, t.mon, t.store = d, d, mon, d.Store()
	}
	return t, nil
}

// access is what a route needs from the site it addresses.
type access int

const (
	// read serves from any site: a writer, or a replica's last applied
	// snapshot.
	read access = iota
	// lead streams a writer's record log; a replica answers 409.
	lead
	// mutate changes a writer: a replica answers 409, and the site's
	// bearer token is enforced.
	mutate
	// remove is mutate without materializing the site, so deleting a
	// parked site does not rehydrate it first.
	remove
)

// resolve looks up the request's site in the fleet — the {site} path
// value, or the default site on the alias routes — and checks it
// against what the route needs. On failure it writes the error (404
// unknown site, 409 replica, 401 token) and reports false.
func (s *server) resolve(w http.ResponseWriter, r *http.Request, need access) (target, bool) {
	name := r.PathValue("site")
	alias := name == ""
	if alias {
		name = s.defaultSite()
	}
	fs, ok := s.fleet.Site(name)
	if !ok {
		if alias {
			writeError(w, http.StatusNotFound, fmt.Errorf("no default site (it was removed; address sites by name)"))
		} else {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown site %q (GET /sites lists them)", name))
		}
		return target{}, false
	}
	if rep := fs.Replica(); rep != nil && need == lead {
		writeError(w, http.StatusConflict,
			fmt.Errorf("site %s is a replica; fetch records from its leader %s", name, rep.Source()))
		return target{}, false
	} else if rep != nil && need >= mutate {
		writeError(w, http.StatusConflict,
			fmt.Errorf("site %s is a read-only replica (following %s)", name, rep.Source()))
		return target{}, false
	}
	if need >= mutate && !payload(fs.Payload()).authorize(w, r, name) {
		return target{}, false
	}
	if need == remove {
		return target{name: name}, true
	}
	t, err := view(fs, true)
	if err != nil {
		// The site was removed mid-request.
		writeError(w, http.StatusNotFound, err)
		return target{}, false
	}
	return t, true
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	// Each pattern is registered once per supported method, plus once
	// methodless so a wrong-method hit gets an explicit 405 with an
	// Allow header listing every supported method (and the API's JSON
	// error shape) instead of the mux's implicit handling.
	type methodHandler struct {
		method string
		h      http.HandlerFunc
	}
	routes := func(pattern string, hs ...methodHandler) {
		allow := make([]string, len(hs))
		for i, mh := range hs {
			allow[i] = mh.method
			mux.HandleFunc(mh.method+" "+pattern, s.instrument(mh.method, pattern, mh.h))
		}
		mux.HandleFunc(pattern, methodNotAllowed(strings.Join(allow, ", ")))
	}
	route := func(method, pattern string, h http.HandlerFunc) {
		routes(pattern, methodHandler{method, h})
	}
	route("POST", "/locate", s.handleLocate)
	route("POST", "/update", s.handleUpdate)
	route("GET", "/snapshot", s.handleSnapshot)
	route("GET", "/drift", s.handleDrift)
	route("POST", "/rollback", s.handleRollback)
	route("GET", "/records", s.handleRecords)
	route("GET", "/sites", s.handleSites)
	route("GET", "/metrics", s.handleMetrics)
	route("GET", "/traces", s.handleTraces)
	route("GET", "/traces/{id}", s.handleTrace)
	routes("/sites/{site}",
		methodHandler{"GET", s.handleSite},
		methodHandler{"PUT", s.handleSitePut},
		methodHandler{"DELETE", s.handleSiteDelete})
	route("POST", "/sites/{site}/locate", s.handleLocate)
	route("POST", "/sites/{site}/update", s.handleUpdate)
	route("GET", "/sites/{site}/snapshot", s.handleSnapshot)
	route("GET", "/sites/{site}/drift", s.handleDrift)
	route("POST", "/sites/{site}/rollback", s.handleRollback)
	route("GET", "/sites/{site}/records", s.handleRecords)
	route("GET", "/healthz", func(w http.ResponseWriter, r *http.Request) {
		// A replica default site reports 0 until it has synced; so does a
		// parked or removed default site (health stays cheap: no
		// rehydration on the probe path).
		var version uint64
		if fs, ok := s.fleet.Site(s.defaultSite()); ok {
			if t, _ := view(fs, false); t.rd != nil {
				if snap := t.rd.Snapshot(); snap != nil {
					version = snap.Version()
				}
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "version": version, "sites": s.fleet.Stats().Sites})
	})
	if s.pprof {
		// Profiling of the live update/locate hot paths, opt-in via
		// -pprof: e.g. `go tool pprof http://host/debug/pprof/profile`
		// while driving POST /update traffic.
		// Methodless patterns, like net/http/pprof's own registrations:
		// the symbolization protocol POSTs to /debug/pprof/symbol.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// methodNotAllowed is the fallback handler behind every route's
// methodless pattern: anything that reaches it matched the path but not
// the method.
func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeJSON(w, http.StatusMethodNotAllowed,
			map[string]string{"error": fmt.Sprintf("method %s not allowed on %s (allow %s)", r.Method, r.URL.Path, allow)})
	}
}

type locateRequest struct {
	// RSS is a single online measurement (one reading per link).
	RSS []float64 `json:"rss,omitempty"`
	// Batch is a set of measurements localized against one consistent
	// snapshot; mutually exclusive with RSS.
	Batch [][]float64 `json:"batch,omitempty"`
}

type positionJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type locateResponse struct {
	Version   uint64         `json:"version"`
	Position  *positionJSON  `json:"position,omitempty"`
	Positions []positionJSON `json:"positions,omitempty"`
}

func (s *server) handleLocate(w http.ResponseWriter, r *http.Request) {
	t, ok := s.resolve(w, r, read)
	if !ok {
		return
	}
	var req locateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if (req.RSS == nil) == (req.Batch == nil) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("provide exactly one of rss or batch"))
		return
	}
	// Pin one snapshot so the reported version matches the database every
	// estimate in the response was computed against.
	snap := t.rd.Snapshot()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("replica %s has not synced from its leader yet", t.name))
		return
	}
	lat := t.rd.LocateLatency()
	observe := func(rss []float64) {
		if t.mon != nil {
			_ = t.mon.Observe(rss)
		}
	}
	tr := trace.FromContext(r.Context())
	tr.Root().SetInt("version", int64(snap.Version()))
	resp := locateResponse{Version: snap.Version()}
	if req.RSS != nil {
		start := time.Now()
		p, err := snap.LocateTraced(tr, req.RSS)
		lat.Observe(time.Since(start).Seconds())
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		observe(req.RSS)
		resp.Position = &positionJSON{X: p.X, Y: p.Y}
	} else {
		start := time.Now()
		sp := tr.StartSpan("locate.batch")
		sp.SetInt("measurements", int64(len(req.Batch)))
		sp.SetInt("workers", int64(s.workers))
		ps, err := snap.LocateBatch(r.Context(), req.Batch, s.workers)
		sp.End()
		lat.Observe(time.Since(start).Seconds())
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		for _, rss := range req.Batch {
			observe(rss)
		}
		resp.Positions = make([]positionJSON, len(ps))
		for i, p := range ps {
			resp.Positions[i] = positionJSON{X: p.X, Y: p.Y}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

type updateRequest struct {
	// Days advances the simulated deployment clock and lets the testbed
	// take the measurements (demo mode); the clock may not pass
	// maxClockDays. Ignored when raw matrices are provided.
	Days float64 `json:"days,omitempty"`
	// NoDecrease, Known and References are the raw update inputs
	// (row-major: [link][location]) for callers with real measurements.
	NoDecrease [][]float64 `json:"no_decrease,omitempty"`
	Known      [][]bool    `json:"known,omitempty"`
	References [][]float64 `json:"references,omitempty"`
}

type updateResponse struct {
	Version    uint64 `json:"version"`
	References []int  `json:"references"`
}

// maxClockDays is the horizon of a site's simulated clock. A
// testbed-driven update that would take the clock past it is rejected:
// the channel's drift chains memoize one value per simulated hour, so
// the cost of a jump grows with its length, and a large enough one
// overflows the conversion to a time.Duration.
const maxClockDays = 3650

// advanceClock returns clock moved forward by days, or false when that
// would pass maxClockDays.
func advanceClock(clock time.Duration, days float64) (time.Duration, bool) {
	if days > maxClockDays-clock.Hours()/24 {
		return 0, false
	}
	return clock + time.Duration(days*float64(24*time.Hour)), true
}

func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	t, ok := s.resolve(w, r, mutate)
	if !ok {
		return
	}
	d, st := t.d, t.st
	var req updateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	refs, err := d.ReferenceLocations()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// The request trace (if sampled) becomes the update pipeline's
	// trace: UpdateTraced records reconstruct → persist → swap spans
	// under it, so one tree covers HTTP entry through publish.
	tr := trace.FromContext(r.Context())
	var noDec, xr iupdater.Matrix
	var known iupdater.Mask
	var at time.Duration
	if req.References != nil {
		if noDec, err = iupdater.MatrixFromRows(req.NoDecrease); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("no_decrease: %w", err))
			return
		}
		if known, err = iupdater.MaskFromRows(req.Known); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("known: %w", err))
			return
		}
		if xr, err = iupdater.MatrixFromRows(req.References); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("references: %w", err))
			return
		}
	} else {
		if req.Days <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("provide days > 0 or raw measurement matrices"))
			return
		}
		// The lock both freezes the clock and serializes the testbed
		// measurements against the monitor's sampler. The measurement is
		// this path's sample stage: its span and the stage histogram see
		// the same duration.
		sp := tr.StartSpan("sample")
		sp.SetInt("references", int64(len(refs)))
		t0 := time.Now()
		st.mu.Lock()
		var ok bool
		if at, ok = advanceClock(st.clock, req.Days); ok {
			noDec = st.tb.NoDecreaseMatrix(at)
			known = st.tb.Mask()
			xr, _ = st.tb.ReferenceMatrix(at, refs)
		}
		st.mu.Unlock()
		el := time.Since(t0)
		sp.EndDur(el)
		if !ok {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("days %g would take the simulated clock past its %d-day horizon", req.Days, maxClockDays))
			return
		}
		if h := d.UpdateStageLatency(iupdater.StageSample); h != nil {
			h.Observe(el.Seconds())
		}
	}
	snap, err := d.UpdateTraced(tr, noDec, known, xr)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if at > 0 {
		// Advance the simulated clock only once the update succeeded, so
		// a failed request can be retried at the same elapsed time.
		st.mu.Lock()
		if at > st.clock {
			st.clock = at
		}
		st.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, updateResponse{Version: snap.Version(), References: refs})
}

// recordJSON mirrors iupdater.RecordInfo over the wire: how one stored
// version sits on disk (full snapshot or changed-columns delta).
type recordJSON struct {
	Version uint64 `json:"version"`
	Kind    string `json:"kind"`
	Bytes   int64  `json:"bytes"`
}

type snapshotResponse struct {
	Version      uint64      `json:"version"`
	Links        int         `json:"links"`
	Cells        int         `json:"cells"`
	Fingerprints [][]float64 `json:"fingerprints"`
	// Record describes the serving version's on-disk record, absent for
	// in-memory sites.
	Record *recordJSON `json:"record,omitempty"`
}

func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	t, ok := s.resolve(w, r, read)
	if !ok {
		return
	}
	snap := t.rd.Snapshot()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("replica %s has not synced from its leader yet", t.name))
		return
	}
	fp := snap.Fingerprints()
	resp := snapshotResponse{
		Version:      snap.Version(),
		Links:        fp.Rows(),
		Cells:        fp.Cols(),
		Fingerprints: fp.ToRows(),
	}
	if t.store != nil {
		for _, rec := range t.store.Records() {
			if rec.Version == snap.Version() {
				resp.Record = &recordJSON{Version: rec.Version, Kind: rec.Kind, Bytes: rec.Bytes}
				break
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// driftResponse mirrors iupdater.MonitorStats over the wire.
type driftResponse struct {
	Queries           uint64          `json:"queries"`
	Residual          float64         `json:"residual_db"`
	Score             float64         `json:"score"`
	Detections        uint64          `json:"detections"`
	UpdatesTriggered  uint64          `json:"updates_triggered"`
	UpdatesCompleted  uint64          `json:"updates_completed"`
	UpdateErrors      uint64          `json:"update_errors"`
	Suppressed        uint64          `json:"suppressed"`
	CooldownRemaining int             `json:"cooldown_remaining"`
	TopLinks          []linkDriftJSON `json:"top_links,omitempty"`
	UpdateInFlight    bool            `json:"update_in_flight"`
	Version           uint64          `json:"version"`
	LastError         string          `json:"last_error,omitempty"`
	// LastUpdateTrace is the trace ID of the most recent drift-triggered
	// auto-update, fetchable at GET /traces/{id}.
	LastUpdateTrace string `json:"last_update_trace,omitempty"`
}

// linkDriftJSON mirrors iupdater.LinkDrift: one offending link in the
// monitor's per-link residual attribution.
type linkDriftJSON struct {
	Link  int     `json:"link"`
	ErrDB float64 `json:"err_db"`
}

func driftJSON(stats iupdater.MonitorStats) driftResponse {
	out := driftResponse{
		Queries:           stats.Queries,
		Residual:          stats.Residual,
		Score:             stats.Score,
		Detections:        stats.Detections,
		UpdatesTriggered:  stats.UpdatesTriggered,
		UpdatesCompleted:  stats.UpdatesCompleted,
		UpdateErrors:      stats.UpdateErrors,
		Suppressed:        stats.Suppressed,
		CooldownRemaining: stats.CooldownRemaining,
		UpdateInFlight:    stats.UpdateInFlight,
		Version:           stats.SnapshotVersion,
		LastError:         stats.LastError,
		LastUpdateTrace:   stats.LastUpdateTraceID,
	}
	for _, ld := range stats.TopLinks {
		out.TopLinks = append(out.TopLinks, linkDriftJSON{Link: ld.Link, ErrDB: ld.ErrDB})
	}
	return out
}

func (s *server) handleDrift(w http.ResponseWriter, r *http.Request) {
	t, ok := s.resolve(w, r, read)
	if !ok {
		return
	}
	if t.mon == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("drift monitor disabled (start with -monitor)"))
		return
	}
	writeJSON(w, http.StatusOK, driftJSON(t.mon.Stats()))
}

type rollbackResponse struct {
	// Version is the newly published snapshot version.
	Version uint64 `json:"version"`
	// RestoredVersion is the stored version whose fingerprints it
	// republishes.
	RestoredVersion uint64 `json:"restored_version"`
}

func (s *server) handleRollback(w http.ResponseWriter, r *http.Request) {
	t, ok := s.resolve(w, r, mutate)
	if !ok {
		return
	}
	vstr := r.URL.Query().Get("version")
	if vstr == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("provide ?version=N (GET /sites/%s lists retained versions)", t.name))
		return
	}
	version, err := strconv.ParseUint(vstr, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("version %q: %w", vstr, err))
		return
	}
	snap, err := t.d.Rollback(version)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, rollbackResponse{Version: snap.Version(), RestoredVersion: version})
}

// handleRecords streams a site's snapshot record log to follower
// replicas (the leader side of replication; see
// iupdater.Deployment.ServeRecords for the protocol). Replica sites do
// not re-serve records, and in-memory sites have no log to stream.
func (s *server) handleRecords(w http.ResponseWriter, r *http.Request) {
	t, ok := s.resolve(w, r, lead)
	if !ok {
		return
	}
	if t.store == nil {
		writeError(w, http.StatusNotImplemented,
			fmt.Errorf("site %s has no durable store to replicate from (start with -data-dir)", t.name))
		return
	}
	// Derive the request context from the drain signal: Shutdown does
	// not cancel in-flight request contexts, and a follower's long-poll
	// would otherwise pin the graceful drain until its wait expires.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.drain, cancel)
	defer stop()
	t.d.ServeRecords().ServeHTTP(w, r.WithContext(ctx))
}

// siteSummaryJSON mirrors iupdater.SiteSummary over the wire.
type siteSummaryJSON struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	Links   int    `json:"links"`
	Cells   int    `json:"cells"`
	Durable bool   `json:"durable"`
	// Hydrated reports whether the site's deployment is resident in
	// memory; a parked site still serves, paying a rehydration from its
	// store on the first query.
	Hydrated bool `json:"hydrated"`
	// OldestVersion is the store's compaction horizon (0 for in-memory
	// sites): rollback and replication resume cannot reach below it.
	OldestVersion  uint64             `json:"oldest_version,omitempty"`
	StoredVersions []uint64           `json:"stored_versions,omitempty"`
	StoredRecords  []recordJSON       `json:"stored_records,omitempty"`
	Search         *searchSummaryJSON `json:"search,omitempty"`
	Drift          *driftResponse     `json:"drift,omitempty"`
	Replica        *replicaStatusJSON `json:"replica,omitempty"`
}

// searchSummaryJSON mirrors iupdater.SearchSummary: the serving
// snapshot's candidate-search tier and its cumulative work counters
// (reset on every publish — each version carries a fresh index).
type searchSummaryJSON struct {
	Tier        string `json:"tier"`
	Queries     uint64 `json:"queries"`
	ColumnEvals uint64 `json:"column_evals"`
	ShardEvals  uint64 `json:"shard_evals"`
}

// replicaStatusJSON mirrors iupdater.ReplicaStatus over the wire: the
// replication lag line of the fleet dashboard.
type replicaStatusJSON struct {
	Source        string `json:"source"`
	Version       uint64 `json:"version"`
	LeaderVersion uint64 `json:"leader_version"`
	Lag           uint64 `json:"lag"`
	Reconnects    uint64 `json:"reconnects"`
	Rebootstraps  uint64 `json:"rebootstraps"`
	Promoted      bool   `json:"promoted,omitempty"`
}

func siteSummaryResponse(sum iupdater.SiteSummary) siteSummaryJSON {
	out := siteSummaryJSON{
		Name:           sum.Name,
		Version:        sum.Version,
		Links:          sum.Links,
		Cells:          sum.Cells,
		Durable:        sum.Durable,
		Hydrated:       sum.Hydrated,
		OldestVersion:  sum.OldestVersion,
		StoredVersions: sum.StoredVersions,
	}
	for _, rec := range sum.StoredRecords {
		out.StoredRecords = append(out.StoredRecords, recordJSON{Version: rec.Version, Kind: rec.Kind, Bytes: rec.Bytes})
	}
	if sum.Search != nil {
		out.Search = &searchSummaryJSON{
			Tier:        sum.Search.Tier,
			Queries:     sum.Search.Stats.Queries,
			ColumnEvals: sum.Search.Stats.ColumnEvals,
			ShardEvals:  sum.Search.Stats.ShardEvals,
		}
	}
	if sum.Drift != nil {
		dr := driftJSON(*sum.Drift)
		out.Drift = &dr
	}
	if sum.Replica != nil {
		out.Replica = &replicaStatusJSON{
			Source:        sum.Replica.Source,
			Version:       sum.Replica.Version,
			LeaderVersion: sum.Replica.LeaderVersion,
			Lag:           sum.Replica.Lag,
			Reconnects:    sum.Replica.Reconnects,
			Rebootstraps:  sum.Replica.Rebootstraps,
			Promoted:      sum.Replica.Promoted,
		}
	}
	return out
}

type sitesResponse struct {
	Sites []siteSummaryJSON `json:"sites"`
}

func (s *server) handleSites(w http.ResponseWriter, r *http.Request) {
	sums := s.fleet.Summaries()
	resp := sitesResponse{Sites: make([]siteSummaryJSON, len(sums))}
	for i, sum := range sums {
		resp.Sites[i] = siteSummaryResponse(sum)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleSite(w http.ResponseWriter, r *http.Request) {
	fs, ok := s.fleet.Site(r.PathValue("site"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown site %q (GET /sites lists them)", r.PathValue("site")))
		return
	}
	writeJSON(w, http.StatusOK, siteSummaryResponse(fs.Summary()))
}

// sitePutRequest creates one site over the API. All fields are
// optional: env defaults to the serve-time -env, seed to 1, token to
// open access, monitor to the -monitor flag.
type sitePutRequest struct {
	Env string `json:"env,omitempty"`
	// Seed seeds the site's simulated testbed.
	Seed uint64 `json:"seed,omitempty"`
	// Token, when set, is required as "Authorization: Bearer <token>" on
	// the site's mutating routes (update, rollback, delete).
	Token   string `json:"token,omitempty"`
	Monitor bool   `json:"monitor,omitempty"`
}

// handleSitePut creates a site at runtime: PUT /sites/{site}. The site
// is surveyed (or warm-started from an existing store directory under
// -data-dir), registered with the fleet — becoming subject to the
// snapshot LRU like any boot-time site — and recorded in the fleet
// manifest so a serve restart re-creates it.
func (s *server) handleSitePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("site")
	if err := checkSiteName(name); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if _, ok := s.fleet.Site(name); ok {
		writeError(w, http.StatusConflict, fmt.Errorf("site %q already exists (DELETE it first to replace it)", name))
		return
	}
	var req sitePutRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.Env == "" {
		req.Env = s.defEnv
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	opts := []iupdater.Option{
		iupdater.WithWorkers(s.workers), iupdater.WithUpdateConcurrency(s.updateConc),
		iupdater.WithTracer(s.tracer, name),
	}
	cfg, warm, err := buildSite(siteSpec{name: name, env: req.Env}, req.Seed, s.dataDir, s.retain, opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	payload(cfg.Payload).token = req.Token
	if req.Monitor || s.monitorOn {
		cfg = withMonitor(cfg)
	}
	if err := s.addSite(name, cfg); err != nil {
		status := http.StatusInternalServerError // the monitor failed to build
		if _, dup := s.fleet.Site(name); dup {
			// Lost a race with a concurrent PUT for the same name.
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	s.manifestAdd(manifestEntry{Name: name, Env: req.Env, Seed: req.Seed, Token: req.Token, Monitor: req.Monitor || s.monitorOn})
	log.Printf("site %s: created via API (%s, seed %d, warm=%v)", name, req.Env, req.Seed, warm)
	fs, _ := s.fleet.Site(name)
	writeJSON(w, http.StatusCreated, siteSummaryResponse(fs.Summary()))
}

// handleSiteDelete removes a site at runtime: DELETE /sites/{site}.
// The fleet tears it down — monitor stopped, store closed — and its
// manifest entry is dropped; the store directory itself is kept, so a
// later PUT of the same name warm-starts from it.
func (s *server) handleSiteDelete(w http.ResponseWriter, r *http.Request) {
	t, ok := s.resolve(w, r, remove)
	if !ok {
		return
	}
	name := t.name
	if err := s.fleet.RemoveSite(name); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.manifestRemove(name)
	log.Printf("site %s: removed via API", name)
	writeJSON(w, http.StatusOK, map[string]any{"removed": name})
}

// manifestEntry is one API-created site's durable config: everything a
// serve restart needs to re-create the site exactly as PUT defined it.
// Boot-time sites are not recorded — their config lives in the flags.
type manifestEntry struct {
	Name    string `json:"name"`
	Env     string `json:"env"`
	Seed    uint64 `json:"seed"`
	Token   string `json:"token,omitempty"`
	Monitor bool   `json:"monitor,omitempty"`
}

// manifestLoad reads the manifest blob; a missing or torn blob is an
// empty manifest. Callers hold manifestMu.
func (s *server) manifestLoad() []manifestEntry {
	if s.manifest == nil {
		return nil
	}
	blob, ok, err := s.manifest.LoadState("manifest")
	if err != nil || !ok {
		return nil
	}
	var entries []manifestEntry
	if err := json.Unmarshal(blob, &entries); err != nil {
		log.Printf("fleet manifest: ignoring corrupt blob: %v", err)
		return nil
	}
	return entries
}

func (s *server) manifestSave(entries []manifestEntry) {
	blob, err := json.Marshal(entries)
	if err == nil {
		err = s.manifest.SaveState("manifest", blob)
	}
	if err != nil {
		// The site still runs; it just won't be re-created on restart.
		log.Printf("fleet manifest: persisting: %v", err)
	}
}

func (s *server) manifestAdd(e manifestEntry) {
	if s.manifest == nil {
		return
	}
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	entries := s.manifestLoad()
	for i := range entries {
		if entries[i].Name == e.Name {
			entries[i] = e
			s.manifestSave(entries)
			return
		}
	}
	s.manifestSave(append(entries, e))
}

// restoreManifestSites re-creates the API-defined sites the fleet
// manifest recorded in a previous serve life. Flag-defined sites win
// name conflicts — the stale manifest entry is dropped so the flags
// stay authoritative. A site that fails to build (say its environment
// no longer exists) is logged and skipped with its entry kept, never
// failing the boot.
func (s *server) restoreManifestSites() error {
	if s.manifest == nil {
		return nil
	}
	s.manifestMu.Lock()
	entries := s.manifestLoad()
	s.manifestMu.Unlock()
	for _, e := range entries {
		if _, ok := s.fleet.Site(e.Name); ok {
			s.manifestRemove(e.Name)
			continue
		}
		opts := []iupdater.Option{
			iupdater.WithWorkers(s.workers), iupdater.WithUpdateConcurrency(s.updateConc),
			iupdater.WithTracer(s.tracer, e.Name),
		}
		cfg, warm, err := buildSite(siteSpec{name: e.Name, env: e.Env}, e.Seed, s.dataDir, s.retain, opts)
		if err != nil {
			log.Printf("site %s: manifest restore failed (entry kept): %v", e.Name, err)
			continue
		}
		payload(cfg.Payload).token = e.Token
		if e.Monitor {
			cfg = withMonitor(cfg)
		}
		if err := s.addSite(e.Name, cfg); err != nil {
			return err
		}
		log.Printf("site %s: restored from fleet manifest (%s, seed %d, warm=%v)", e.Name, e.Env, e.Seed, warm)
	}
	return nil
}

func (s *server) manifestRemove(name string) {
	if s.manifest == nil {
		return
	}
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	entries := s.manifestLoad()
	kept := entries[:0]
	for _, e := range entries {
		if e.Name != name {
			kept = append(kept, e)
		}
	}
	if len(kept) != len(entries) {
		s.manifestSave(kept)
	}
}

// handleMetrics serves the fleet-wide Prometheus text exposition
// (format 0.0.4). Every family is written once — HELP and TYPE ahead of
// the samples — with one sample (or bucket series) per site, labeled
// site="<name>". Search counters add the serving tier, per-link drift
// attribution adds the link index. Families a site has no data for
// (drift on an unmonitored site, replication on a writer) simply have
// no sample for that site.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sums := s.fleet.Summaries()
	var buf bytes.Buffer
	mw := obs.NewWriter(&buf)
	site := func(name string) obs.Label { return obs.Label{Name: "site", Value: name} }
	// peek views a site without rehydrating it: scrapes never defeat the
	// LRU. A parked site has no deployment to sample, and a site removed
	// since Summaries (removal racing the scrape) has nothing at all.
	peek := func(name string) target {
		if fs, ok := s.fleet.Site(name); ok {
			t, _ := view(fs, false)
			return t
		}
		return target{}
	}

	mw.Family("iupdater_locate_latency_seconds", "histogram", "End-to-end locate latency in seconds, snapshot load included.")
	for _, sum := range sums {
		if rd := peek(sum.Name).rd; rd != nil {
			mw.Histogram("iupdater_locate_latency_seconds", rd.LocateLatency().Snapshot(), site(sum.Name))
		}
	}

	mw.Family("iupdater_snapshot_version", "gauge", "Serving fingerprint snapshot version (0 for an unsynced replica).")
	for _, sum := range sums {
		mw.Sample("iupdater_snapshot_version", float64(sum.Version), site(sum.Name))
	}

	// Update-pipeline stage latency (writer sites only), fed from the
	// same measured durations the pipeline's trace spans record — the
	// histogram and a captured trace cannot disagree.
	mw.Family("iupdater_update_duration_seconds", "histogram",
		"Update pipeline stage latency in seconds, by stage (sample, reconstruct, persist, swap).")
	for _, sum := range sums {
		d := peek(sum.Name).d
		if d == nil {
			continue
		}
		for _, stage := range iupdater.UpdateStages() {
			if h := d.UpdateStageLatency(stage); h != nil {
				mw.Histogram("iupdater_update_duration_seconds", h.Snapshot(),
					site(sum.Name), obs.Label{Name: "stage", Value: stage})
			}
		}
	}
	mw.Family("iupdater_publish_total", "counter", "Snapshot publishes made visible to queries (updates, installs, rollbacks).")
	for _, sum := range sums {
		if d := peek(sum.Name).d; d != nil {
			mw.Sample("iupdater_publish_total", float64(d.Publishes()), site(sum.Name))
		}
	}

	// Candidate-search work, labeled with the serving snapshot's tier.
	// The counters reset on every publish: each snapshot version carries
	// a fresh index (Prometheus handles counter resets natively).
	searchFamilies := []struct {
		name, help string
		value      func(iupdater.SearchStats) uint64
	}{
		{"iupdater_search_queries_total", "Candidate searches answered by the serving snapshot.",
			func(st iupdater.SearchStats) uint64 { return st.Queries }},
		{"iupdater_search_column_evals_total", "Full fingerprint-column distance evaluations by the serving snapshot.",
			func(st iupdater.SearchStats) uint64 { return st.ColumnEvals }},
		{"iupdater_search_shard_evals_total", "Coarse shard-routing evaluations by the serving snapshot.",
			func(st iupdater.SearchStats) uint64 { return st.ShardEvals }},
	}
	for _, fam := range searchFamilies {
		mw.Family(fam.name, "counter", fam.help)
		for _, sum := range sums {
			if sum.Search == nil {
				continue
			}
			mw.Sample(fam.name, float64(fam.value(sum.Search.Stats)),
				site(sum.Name), obs.Label{Name: "tier", Value: sum.Search.Tier})
		}
	}

	driftGauges := []struct {
		name, help string
		value      func(*iupdater.MonitorStats) float64
	}{
		{"iupdater_drift_residual_db", "Latest per-query residual against the serving fingerprints (dB).",
			func(st *iupdater.MonitorStats) float64 { return st.Residual }},
		{"iupdater_drift_score", "Current drift-detector score.",
			func(st *iupdater.MonitorStats) float64 { return st.Score }},
		{"iupdater_drift_cooldown_remaining", "Queries left before the monitor may trigger another update.",
			func(st *iupdater.MonitorStats) float64 { return float64(st.CooldownRemaining) }},
	}
	for _, fam := range driftGauges {
		mw.Family(fam.name, "gauge", fam.help)
		for _, sum := range sums {
			if sum.Drift == nil {
				continue
			}
			mw.Sample(fam.name, fam.value(sum.Drift), site(sum.Name))
		}
	}
	driftCounters := []struct {
		name, help string
		value      func(*iupdater.MonitorStats) uint64
	}{
		{"iupdater_drift_queries_total", "Measurements observed by the drift monitor.",
			func(st *iupdater.MonitorStats) uint64 { return st.Queries }},
		{"iupdater_drift_detections_total", "Drift detections (post-hysteresis).",
			func(st *iupdater.MonitorStats) uint64 { return st.Detections }},
		{"iupdater_drift_updates_triggered_total", "Automatic updates the monitor started.",
			func(st *iupdater.MonitorStats) uint64 { return st.UpdatesTriggered }},
		{"iupdater_drift_updates_completed_total", "Automatic updates that published a new snapshot.",
			func(st *iupdater.MonitorStats) uint64 { return st.UpdatesCompleted }},
		{"iupdater_drift_update_errors_total", "Automatic updates that failed.",
			func(st *iupdater.MonitorStats) uint64 { return st.UpdateErrors }},
		{"iupdater_drift_detections_suppressed_total", "Detections suppressed by cooldown or an in-flight update.",
			func(st *iupdater.MonitorStats) uint64 { return st.Suppressed }},
	}
	for _, fam := range driftCounters {
		mw.Family(fam.name, "counter", fam.help)
		for _, sum := range sums {
			if sum.Drift == nil {
				continue
			}
			mw.Sample(fam.name, float64(fam.value(sum.Drift)), site(sum.Name))
		}
	}

	mw.Family("iupdater_drift_link_error_db", "gauge", "Per-link EWMA residual attribution for the top offending links (dB).")
	for _, sum := range sums {
		if sum.Drift == nil {
			continue
		}
		for _, ld := range sum.Drift.TopLinks {
			mw.Sample("iupdater_drift_link_error_db", ld.ErrDB,
				site(sum.Name), obs.Label{Name: "link", Value: strconv.Itoa(ld.Link)})
		}
	}

	mw.Family("iupdater_store_bytes", "gauge", "On-disk bytes across the store's retained snapshot records.")
	for _, sum := range sums {
		if !sum.Durable {
			continue
		}
		var total int64
		for _, rec := range sum.StoredRecords {
			total += rec.Bytes
		}
		mw.Sample("iupdater_store_bytes", float64(total), site(sum.Name))
	}
	mw.Family("iupdater_store_records", "gauge", "Retained snapshot records by kind (full or delta).")
	for _, sum := range sums {
		if !sum.Durable {
			continue
		}
		byKind := map[string]int{"full": 0, "delta": 0}
		for _, rec := range sum.StoredRecords {
			byKind[rec.Kind]++
		}
		for _, kind := range []string{"full", "delta"} {
			mw.Sample("iupdater_store_records", float64(byKind[kind]),
				site(sum.Name), obs.Label{Name: "kind", Value: kind})
		}
	}
	mw.Family("iupdater_store_compactions_total", "counter", "Log rewrites that dropped history (manual and retention-driven).")
	for _, sum := range sums {
		if store := peek(sum.Name).store; store != nil {
			mw.Sample("iupdater_store_compactions_total", float64(store.Compactions()), site(sum.Name))
		}
	}

	// Fleet lifecycle: registrations versus what the snapshot LRU keeps
	// resident, and the cost of bringing parked sites back.
	fstats := s.fleet.Stats()
	mw.Family("iupdater_sites", "gauge", "Registered sites by residency state (resident in memory vs parked on store).")
	mw.Sample("iupdater_sites", float64(fstats.Resident), obs.Label{Name: "state", Value: "resident"})
	mw.Sample("iupdater_sites", float64(fstats.Sites-fstats.Resident), obs.Label{Name: "state", Value: "parked"})
	mw.Family("iupdater_site_evictions_total", "counter", "Sites parked by the resident-limit LRU (deployment released, store retained).")
	mw.Sample("iupdater_site_evictions_total", float64(fstats.Evictions))
	mw.Family("iupdater_site_rehydrations_total", "counter", "Parked sites re-materialized from their stores on demand.")
	mw.Sample("iupdater_site_rehydrations_total", float64(fstats.Rehydrations))
	mw.Family("iupdater_site_rehydration_seconds", "histogram", "Latency of re-materializing a parked site from its store, in seconds.")
	mw.Histogram("iupdater_site_rehydration_seconds", s.fleet.RehydrationLatency().Snapshot())

	replicaGauges := []struct {
		name, help string
		value      func(*iupdater.ReplicaStatus) float64
	}{
		{"iupdater_replica_applied_version", "Newest snapshot version the follower has applied.",
			func(st *iupdater.ReplicaStatus) float64 { return float64(st.Version) }},
		{"iupdater_replica_leader_version", "Newest snapshot version the leader has advertised.",
			func(st *iupdater.ReplicaStatus) float64 { return float64(st.LeaderVersion) }},
		{"iupdater_replica_lag_versions", "Replication lag in snapshot versions.",
			func(st *iupdater.ReplicaStatus) float64 { return float64(st.Lag) }},
	}
	for _, fam := range replicaGauges {
		mw.Family(fam.name, "gauge", fam.help)
		for _, sum := range sums {
			if sum.Replica == nil {
				continue
			}
			mw.Sample(fam.name, fam.value(sum.Replica), site(sum.Name))
		}
	}
	replicaCounters := []struct {
		name, help string
		value      func(*iupdater.ReplicaStatus) uint64
	}{
		{"iupdater_replica_reconnects_total", "Failed leader polls, each retried over a fresh connection.",
			func(st *iupdater.ReplicaStatus) uint64 { return st.Reconnects }},
		{"iupdater_replica_rebootstraps_total", "Re-bootstraps from the leader's newest full record.",
			func(st *iupdater.ReplicaStatus) uint64 { return st.Rebootstraps }},
	}
	for _, fam := range replicaCounters {
		mw.Family(fam.name, "counter", fam.help)
		for _, sum := range sums {
			if sum.Replica == nil {
				continue
			}
			mw.Sample(fam.name, float64(fam.value(sum.Replica)), site(sum.Name))
		}
	}

	mw.Family("iupdater_traces_started_total", "counter", "Request traces begun across all routes and pipelines (sampled or not).")
	mw.Family("iupdater_traces_retained_total", "counter", "Traces retained in the recent ring (head-sampled, slow or forced).")
	mw.Family("iupdater_traces_slow_total", "counter", "Retained traces that met their path's slow threshold.")
	ts := s.tracer.Stats()
	mw.Sample("iupdater_traces_started_total", float64(ts.Started))
	mw.Sample("iupdater_traces_retained_total", float64(ts.Retained))
	mw.Sample("iupdater_traces_slow_total", float64(ts.Slow))

	mw.Family("iupdater_build_info", "gauge", "Build metadata of the serving binary; the value is always 1.")
	mw.Sample("iupdater_build_info", 1,
		obs.Label{Name: "version", Value: buildVersion()},
		obs.Label{Name: "goversion", Value: runtime.Version()})

	// Go runtime health, read through runtime/metrics (names are
	// version-checked: a metric the runtime no longer exports is simply
	// omitted rather than reported as zero).
	runtimeGauges := []struct {
		name, help, metric string
	}{
		{"iupdater_goroutines", "Live goroutines in the serving process.", "/sched/goroutines:goroutines"},
		{"iupdater_heap_bytes", "Bytes of live heap objects.", "/memory/classes/heap/objects:bytes"},
	}
	rsamples := make([]runtimemetrics.Sample, len(runtimeGauges))
	for i, g := range runtimeGauges {
		rsamples[i].Name = g.metric
	}
	runtimemetrics.Read(rsamples)
	for i, g := range runtimeGauges {
		mw.Family(g.name, "gauge", g.help)
		switch rsamples[i].Value.Kind() {
		case runtimemetrics.KindUint64:
			mw.Sample(g.name, float64(rsamples[i].Value.Uint64()))
		case runtimemetrics.KindFloat64:
			mw.Sample(g.name, rsamples[i].Value.Float64())
		}
	}
	// Cumulative stop-the-world GC pause time; runtime/metrics only
	// exposes pause distributions, so the exact total comes from
	// MemStats (the historical Go-collector behavior on scrape).
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mw.Family("iupdater_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause time in seconds.")
	mw.Sample("iupdater_gc_pause_seconds_total", float64(ms.PauseTotalNs)/1e9)

	if err := mw.Err(); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("rendering metrics: %w", err))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(buf.Bytes()); err != nil {
		log.Printf("iupdater: writing metrics response: %v", err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("iupdater: encoding response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// siteSpec is one -sites entry: a registry name and the simulated
// environment backing it.
type siteSpec struct {
	name string
	env  string
}

// parseSiteSpecs parses the -sites flag ("name=env,name=env"). An empty
// flag falls back to one site named "default" on the -env environment —
// the original single-site behavior. Names are validated here, before
// buildSite turns them into -data-dir subdirectories and runs surveys —
// Fleet.Add would reject a bad name anyway, but only after the
// filesystem and survey work had happened.
func parseSiteSpecs(spec, defaultEnv string) ([]siteSpec, error) {
	if spec == "" {
		return []siteSpec{{name: "default", env: defaultEnv}}, nil
	}
	var out []siteSpec
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		name, env, found := strings.Cut(strings.TrimSpace(part), "=")
		if !found {
			// A bare name serves the default environment.
			env = defaultEnv
		}
		if err := checkSiteName(name); err != nil {
			return nil, fmt.Errorf("-sites: %w", err)
		}
		if seen[name] {
			return nil, fmt.Errorf("-sites: duplicate site %q", name)
		}
		seen[name] = true
		out = append(out, siteSpec{name: name, env: env})
	}
	return out, nil
}

// checkSiteName mirrors Fleet.Add's naming rule: site names become URL
// path segments and store directory names, so only letters, digits, -
// and _ are allowed.
func checkSiteName(name string) error {
	if name == "" {
		return fmt.Errorf("empty site name")
	}
	for _, r := range name {
		if (r < 'a' || r > 'z') && (r < 'A' || r > 'Z') && (r < '0' || r > '9') && r != '-' && r != '_' {
			return fmt.Errorf("site name %q: use letters, digits, - and _", name)
		}
	}
	return nil
}

// followSpec is one -follow entry: a registry name and the leader
// records URL the replica tails.
type followSpec struct {
	name string
	url  string
}

// parseFollowSpecs parses the -follow flag ("name=url,name=url"). The
// URL is required — a follower without a leader serves nothing.
func parseFollowSpecs(spec string, taken map[string]bool) ([]followSpec, error) {
	if spec == "" {
		return nil, nil
	}
	var out []followSpec
	for _, part := range strings.Split(spec, ",") {
		name, url, found := strings.Cut(strings.TrimSpace(part), "=")
		if !found || url == "" {
			return nil, fmt.Errorf("-follow: %q: want name=records-url (e.g. branch=http://leader:8080/records)", part)
		}
		if err := checkSiteName(name); err != nil {
			return nil, fmt.Errorf("-follow: %w", err)
		}
		if taken[name] {
			return nil, fmt.Errorf("-follow: duplicate site %q", name)
		}
		taken[name] = true
		out = append(out, followSpec{name: name, url: url})
	}
	return out, nil
}

// buildSite wires one site: a testbed for its environment, and either a
// warm restart from its store directory (when dataDir is set and holds
// snapshots) or a fresh survey persisted into it. Returns the site's
// fleet registration — the deployment, with serve's per-site state as
// payload — and whether it warm-started.
func buildSite(spec siteSpec, seed uint64, dataDir string, retain int, opts []iupdater.Option) (iupdater.SiteConfig, bool, error) {
	var none iupdater.SiteConfig
	env, err := pickEnv(spec.env)
	if err != nil {
		return none, false, fmt.Errorf("site %s: %w", spec.name, err)
	}
	tb := iupdater.NewTestbed(env, seed)
	var st *iupdater.Store
	if dataDir != "" {
		st, err = iupdater.OpenStore(filepath.Join(dataDir, spec.name), iupdater.WithRetention(retain))
		if err != nil {
			return none, false, fmt.Errorf("site %s: %w", spec.name, err)
		}
		if st.LatestVersion() > 0 {
			d, err := iupdater.OpenDeployment(st, opts...)
			if err != nil {
				st.Close()
				return none, false, fmt.Errorf("site %s: %w", spec.name, err)
			}
			if d.Geometry() != tb.Geometry() {
				st.Close()
				return none, false, fmt.Errorf("site %s: stored geometry %+v does not match environment %s (%+v)",
					spec.name, d.Geometry(), env.Name(), tb.Geometry())
			}
			return iupdater.SiteConfig{Deployment: d, Payload: &site{tb: tb}}, true, nil
		}
	}
	if st != nil {
		opts = append(opts, iupdater.WithStore(st))
	}
	d, _, err := tb.Deploy(0, 50, opts...)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return none, false, fmt.Errorf("site %s: %w", spec.name, err)
	}
	return iupdater.SiteConfig{Deployment: d, Payload: &site{tb: tb}}, false, nil
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	envName := envFlag(fs)
	seed := fs.Uint64("seed", 1, "deployment seed (site i uses seed+i)")
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "batch-locate worker pool size (0 = GOMAXPROCS)")
	updateConc := fs.Int("update-concurrency", 1, "ALS sweep workers for Update (0 = GOMAXPROCS, 1 = sequential)")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	monitorOn := fs.Bool("monitor", false, "auto-update: detect drift from /locate traffic and refresh each site's database")
	dataDir := fs.String("data-dir", "", "durable snapshot root (one store directory per site); empty = in-memory")
	retain := fs.Int("retain", 0, "snapshot versions retained per site store (0 = all)")
	sitesFlag := fs.String("sites", "", "comma-separated name=env site list (default: one site 'default' on -env)")
	resident := fs.Int("resident", 0, "max sites kept materialized in memory; excess durable sites are parked on their stores and rehydrate on demand (0 = all resident)")
	followFlag := fs.String("follow", "", "comma-separated name=url read-only replica sites tailing a leader's records endpoint")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline for in-flight requests")
	accessLog := fs.Bool("access-log", false, "log one structured line per request (method, route, site, status, duration, trace ID)")
	traceHead := fs.Int("trace-head", 100, "head-sample 1 in N request traces into GET /traces (0 = slow and forced traces only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs, err := parseSiteSpecs(*sitesFlag, *envName)
	if err != nil {
		return err
	}
	taken := make(map[string]bool)
	for _, spec := range specs {
		taken[spec.name] = true
	}
	follows, err := parseFollowSpecs(*followFlag, taken)
	if err != nil {
		return err
	}

	s := newServer(*workers)
	if *resident > 0 {
		s.fleet = iupdater.NewFleet(iupdater.WithResidentLimit(*resident))
	}
	s.pprof = *pprofOn
	s.tracer = newServeTracer(*traceHead)
	s.dataDir = *dataDir
	s.retain = *retain
	s.updateConc = *updateConc
	s.monitorOn = *monitorOn
	s.defEnv = *envName
	if *accessLog {
		s.access = log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds)
	}
	if *dataDir != "" {
		// The fleet manifest store durably records API-created sites.
		// "fleet.manifest" cannot collide with a site's store directory:
		// site names reject dots.
		m, err := iupdater.OpenStore(filepath.Join(*dataDir, "fleet.manifest"))
		if err != nil {
			return fmt.Errorf("fleet manifest: %w", err)
		}
		s.manifest = m
		defer m.Close()
	}
	var cancels []func()
	defer func() {
		// On a failed startup, release whatever was wired so far; after
		// a clean serve this is a no-op (the cleanup already ran).
		for _, c := range cancels {
			c()
		}
		s.fleet.Close()
	}()
	for i, spec := range specs {
		opts := []iupdater.Option{
			iupdater.WithWorkers(*workers), iupdater.WithUpdateConcurrency(*updateConc),
			iupdater.WithTracer(s.tracer, spec.name),
		}
		log.Printf("site %s: preparing %s (seed %d)...", spec.name, spec.env, *seed+uint64(i))
		cfg, warm, err := buildSite(spec, *seed+uint64(i), *dataDir, *retain, opts)
		if err != nil {
			return err
		}
		d := cfg.Deployment
		if warm {
			log.Printf("site %s: warm restart from %s (snapshot v%d, %d versions retained)",
				spec.name, d.Store().Dir(), d.Version(), len(d.Store().Versions()))
		} else {
			log.Printf("site %s: surveyed: %d links, %d cells%s",
				spec.name, d.Geometry().Links, d.Geometry().NumCells(), durabilityNote(d))
		}
		if *monitorOn {
			cfg = withMonitor(cfg)
		}
		updates, cancelUpdates := d.Updates()
		cancels = append(cancels, cancelUpdates)
		go func(name string) {
			for snap := range updates {
				log.Printf("site %s: published fingerprint snapshot v%d", name, snap.Version())
			}
		}(spec.name)
		if err := s.addSite(spec.name, cfg); err != nil {
			return err
		}
	}
	for _, spec := range follows {
		rep, err := iupdater.OpenReplica(spec.url, iupdater.WithReplicaTracer(s.tracer, spec.name))
		if err != nil {
			return fmt.Errorf("site %s: %w", spec.name, err)
		}
		if _, err := s.fleet.AddReplica(spec.name, rep); err != nil {
			rep.Close()
			return err
		}
		log.Printf("site %s: following %s (replica lag under GET /sites)", spec.name, spec.url)
	}
	if err := s.restoreManifestSites(); err != nil {
		return err
	}
	if *monitorOn {
		log.Printf("drift monitors enabled (GET /drift, GET /sites)")
	}
	if *pprofOn {
		log.Printf("pprof enabled under /debug/pprof/")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := s.httpServer()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("serving %d site(s) %v on %s (POST /locate|/update|/rollback, GET /snapshot|/drift|/records|/sites|/metrics|/traces|/healthz; per-site under /sites/{name}/...)",
		len(s.fleet.Names()), s.fleet.Names(), ln.Addr())
	return serveUntil(ctx, srv, ln, *drainTimeout, func() {
		// Monitors first (Fleet.Close waits out in-flight auto-updates,
		// whose publishes must still reach the logging subscriptions),
		// then the stores, then the subscriptions.
		if err := s.fleet.Close(); err != nil {
			log.Printf("closing fleet: %v", err)
		}
		for _, c := range cancels {
			c()
		}
		cancels = nil
	})
}

// buildVersion reports the main-module version baked into the binary,
// "(devel)" for local builds.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

func durabilityNote(d *iupdater.Deployment) string {
	if st := d.Store(); st != nil {
		return fmt.Sprintf(", persisted to %s", st.Dir())
	}
	return " (in-memory: snapshots do not survive a restart)"
}

// readHeaderTimeout bounds how long a client may take to send one
// request's header, so a connection that opens and never finishes its
// request line is closed instead of holding a goroutine and a socket.
// ReadTimeout, WriteTimeout and IdleTimeout stay zero: with the idle and
// read timeouts both unset, net/http sets no deadline while a keep-alive
// connection waits for its next request, and /records long-polls wait
// on the response side.
const readHeaderTimeout = 10 * time.Second

// httpServer builds the HTTP server serve and replicate run over s.
func (s *server) httpServer() *http.Server {
	srv := &http.Server{Handler: s.handler(), ReadHeaderTimeout: readHeaderTimeout}
	srv.RegisterOnShutdown(s.cancelDrain)
	return srv
}

// serveUntil serves on ln until ctx is cancelled (SIGINT/SIGTERM in
// production), then drains in-flight requests via http.Server.Shutdown
// bounded by timeout, and finally runs cleanup — stopping the monitor
// goroutines and any in-flight auto-update cleanly. A server error (e.g.
// a dead listener) ends the serve without waiting for the signal.
func serveUntil(ctx context.Context, srv *http.Server, ln net.Listener, timeout time.Duration, cleanup func()) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	var err error
	select {
	case err = <-errc:
	case <-ctx.Done():
		log.Printf("shutting down: draining in-flight requests (timeout %s)", timeout)
		sctx, cancel := context.WithTimeout(context.Background(), timeout)
		err = srv.Shutdown(sctx)
		cancel()
		if serr := <-errc; serr != nil && serr != http.ErrServerClosed && err == nil {
			err = serr
		}
	}
	cleanup()
	if err == http.ErrServerClosed {
		err = nil
	}
	return err
}
