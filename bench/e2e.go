package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"iupdater"
)

const (
	// refWindows is how many windows an end-to-end run measures the
	// reference rate in, spread over the whole run with the updates
	// between them.
	refWindows = 8
	// refSamples is the fewest requests the traced ladder's reference rung
	// holds, enough for its p99.
	refSamples = 1100
	// bisectSteps refine the highest passing rate between the highest
	// passing ladder rung and the rung above it.
	bisectSteps = 3
	// slotDur is the update stream's period at 20 updates/s; update-mix
	// queries falling due within one slot are measured at that slot's
	// simulated day.
	slotDur = 50 * time.Millisecond
	// slotQueries is how many distinct queries each slot holds: one per
	// locate a slot takes at update-mix's reference rate.
	slotQueries = 50
	// poolSize is the query pool of the stationary workloads, cycled
	// through by the steps (queryBatchPool for 256-measurement batches).
	// The pools are large so that the median localization error varies
	// little from seed to seed.
	poolSize       = 16384
	queryBatchPool = 128
)

// metric is one named, unit-bearing result.
type metric struct {
	name, unit string
	value      float64
}

// outcome is what one run reports.
type outcome struct {
	attempted, failed int
	metrics           []metric
	// problems are failed output checks; shortfalls are percentiles the
	// sample could not support. Either makes the run incorrect.
	problems   []string
	shortfalls []string
	steps      []stepResult
}

func (o *outcome) problem(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) add(name, unit string, v float64) {
	o.metrics = append(o.metrics, metric{name, unit, v})
}

// correct reports whether every output check passed and every reported
// percentile had enough samples.
func (o *outcome) correct() bool {
	return o.failed == 0 && len(o.problems) == 0 && len(o.shortfalls) == 0
}

// tailMetric adds the p-th percentile of samples as name, or records a
// shortfall when the sample cannot carry it.
func (o *outcome) tailMetric(name string, samples []float64, p float64) {
	v, err := tail(samples, p)
	if err != nil {
		o.shortfalls = append(o.shortfalls, name+": "+err.Error())
		v = math.NaN()
	}
	o.add(name, "ms", v)
}

// runConfig carries the command-line settings shared by every mode.
type runConfig struct {
	bin, work, out string
	// serverCPUs, when set, pins the servers to these CPUs (taskset -c).
	serverCPUs string
	seed       uint64
	seconds    float64
	setups     int
}

func (c runConfig) duration(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// servers is one set-up: the serve process and, for update-mix, its
// replicate follower.
type servers struct {
	dir              string
	leader, follower *proc
}

func (s *servers) stop() {
	if s.follower != nil {
		s.follower.stop()
	}
	if s.leader != nil {
		s.leader.stop()
	}
	os.RemoveAll(s.dir)
}

// startServers starts the workload's processes in a fresh data directory
// and waits until they are ready, returning the time that took: exec to
// /healthz answering with every site listed in GET /sites and, with a
// follower, the follower serving the leader's version.
func startServers(w workload, cfg runConfig, dir string) (*servers, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	sv := &servers{dir: dir}
	t0 := time.Now()
	var err error
	if sv.leader, err = startProc(cfg, w.serveArgs(filepath.Join(dir, "data"))...); err != nil {
		sv.stop()
		return nil, 0, err
	}
	var fc *httpConn
	if w.follower {
		records := "http://" + sv.leader.addr + "/sites/default/records"
		if sv.follower, err = startProc(cfg, "replicate", "-leader", records, "-addr", "127.0.0.1:0"); err != nil {
			sv.stop()
			return nil, 0, err
		}
		fc = &httpConn{addr: sv.follower.addr}
		defer fc.close()
	}
	lc := &httpConn{addr: sv.leader.addr}
	defer lc.close()
	if err := waitReady(lc, fc, w.siteNames()); err != nil {
		sv.stop()
		return nil, 0, err
	}
	return sv, time.Since(t0).Seconds(), nil
}

// setUp starts the workload cfg.setups times, keeping the last set-up
// running, and returns it with the median set-up time.
func setUp(w workload, cfg runConfig) (*servers, float64, error) {
	var times []float64
	var sv *servers
	for k := 0; k < cfg.setups; k++ {
		s, t, err := startServers(w, cfg, filepath.Join(cfg.work, "setup-"+strconv.Itoa(k)))
		if err != nil {
			return nil, 0, err
		}
		times = append(times, t)
		if k < cfg.setups-1 {
			s.stop()
		} else {
			sv = s
		}
	}
	return sv, median(times), nil
}

// leadingVersion parses the version a locate or update response starts
// with ({"version":N,...}) without decoding the rest.
func leadingVersion(body []byte) (uint64, bool) {
	const prefix = `{"version":`
	if len(body) < len(prefix) || string(body[:len(prefix)]) != prefix {
		return 0, false
	}
	var v uint64
	n := 0
	for _, c := range body[len(prefix):] {
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + uint64(c-'0')
		n++
	}
	return v, n > 0
}

// refRecord keeps what a reference window's responses need for their
// offline checks.
type refRecord struct {
	entry []int
	body  [][]byte
}

// e2e drives one set-up over loopback HTTP with tracing off.
type e2e struct {
	w    workload
	cfg  runConfig
	wd   *world
	span time.Duration
	out  outcome

	sv   *servers
	ctl  *httpConn
	load []*httpConn

	// queries is the stationary pool, or update-mix's slots of
	// slotQueries each; t0 is update-mix's slot origin.
	queries []query
	probes  []query
	t0      time.Time
	base    int
	acked   atomic.Uint64

	// windows are the reference-rate steps and refs their records.
	windows []stepResult
	refs    []*refRecord

	updLat []float64
	// updOK counts the update stream's successful updates; updOps lists
	// the site of every other measured update, in order; nextSite is the
	// fleet's round-robin position.
	updOK    int
	updOps   []int
	nextSite int
}

// newE2E generates the inputs of a run whose load spans span.
func newE2E(w workload, cfg runConfig, span time.Duration) *e2e {
	r := &e2e{w: w, cfg: cfg, wd: newWorld(w, cfg.seed), span: span}
	r.generate()
	return r
}

// connect opens the control and load connections to a set-up.
func (r *e2e) connect(sv *servers) {
	r.sv = sv
	r.ctl = &httpConn{addr: sv.leader.addr}
	r.load = nil
	for k := 0; k < r.w.conns; k++ {
		r.load = append(r.load, &httpConn{addr: sv.leader.addr})
	}
}

func (r *e2e) disconnect() {
	r.ctl.close()
	for _, c := range r.load {
		c.close()
	}
}

// runE2E measures the end-to-end metrics: the reference rate in
// windows spread over --seconds, updates spread between the windows
// (or, on update-mix, streamed beside them), then offline checks of every
// answer against an in-process replay. The windows' latencies are kept
// in the run's steps; they are not end-to-end metrics, because slow
// periods of the shared host move them by up to 1.7× between runs.
func runE2E(w workload, cfg runConfig) (*outcome, error) {
	r := newE2E(w, cfg, cfg.duration(1))
	sv, setupS, err := setUp(w, cfg)
	if err != nil {
		return nil, err
	}
	defer sv.stop()
	r.connect(sv)
	defer r.disconnect()

	if err := r.precondition(); err != nil {
		return nil, err
	}
	r.measure()
	fps, err := r.collect()
	if err != nil {
		return nil, err
	}
	rss, err := sv.leader.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if sv.follower != nil {
		f, err := sv.follower.peakRSSMiB()
		if err != nil {
			return nil, err
		}
		rss += f
	}
	sv.stop()

	mirrors, err := r.replay()
	if err != nil {
		return nil, err
	}
	locErr := r.verifyRefs(mirrors)
	recon := r.verifyFinal(mirrors, fps)

	o := &r.out
	o.add("setup_s", "s", setupS)
	o.add("locate_error_m", "m", median(locErr))
	o.add("recon_error_db", "dB", recon)
	o.add("server_rss_mb", "MiB", rss)
	return o, nil
}

// generate builds every request the run will send before anything is
// timed.
func (r *e2e) generate() {
	w, wd := r.w, r.wd
	switch {
	case w.updateRate > 0:
		nSlots := int(r.span/slotDur) + 2
		for s := 0; s < nSlots; s++ {
			at := days(float64(s+1) * updateDays)
			for k := 0; k < slotQueries; k++ {
				r.queries = append(r.queries, wd.makeQuery(0, at, k))
			}
		}
	case w.batch > 0:
		r.queries = wd.pool(queryBatchPool)
	default:
		r.queries = wd.pool(poolSize)
	}
	// One probe per site at the load's day, for untimed checks and for
	// touching sites into residency.
	for i := range wd.tbs {
		r.probes = append(r.probes, wd.makeQuery(i, w.startDay(), poolSize+i))
	}
}

// precondition runs the untimed per-site updates, site by site, so each
// site's updates run back to back on one hydrated deployment.
func (r *e2e) precondition() error {
	for _, name := range r.wd.names {
		for k := 0; k < r.w.precondition; k++ {
			status, body, err := r.ctl.do(updateRequest(name, preconditionDays))
			if err != nil || status != 200 {
				return fmt.Errorf("preconditioning %s: status %d err %v: %s", name, status, err, clip(body))
			}
			if v, _ := leadingVersion(body); v != uint64(k+2) {
				return fmt.Errorf("preconditioning %s: update %d published v%d", name, k+1, v)
			}
		}
	}
	return nil
}

// entry maps request i of step s (the base-th request of the run so far)
// to its query.
func (r *e2e) entry(s *step, base, i int) int {
	if r.w.updateRate == 0 {
		return (base + i) % len(r.queries)
	}
	due := s.start.Add(dueOffset(i, s.rate))
	slot := min(int(due.Sub(r.t0)/slotDur), len(r.queries)/slotQueries-1)
	return slot*slotQueries + i%slotQueries
}

func (r *e2e) locateIssue(s *step, rec *refRecord) issueFunc {
	base := r.base
	return func(c *httpConn, i int) error {
		k := r.entry(s, base, i)
		floor := r.acked.Load()
		status, body, err := c.do(r.queries[k].raw)
		if err != nil {
			return err
		}
		if status != 200 {
			return fmt.Errorf("locate: status %d: %s", status, clip(body))
		}
		v, ok := leadingVersion(body)
		if !ok {
			return fmt.Errorf("locate: no version in %s", clip(body))
		}
		if v < floor {
			return fmt.Errorf("locate answered v%d after v%d was acknowledged", v, floor)
		}
		if rec != nil {
			rec.entry[i], rec.body[i] = k, append([]byte(nil), body...)
		}
		return nil
	}
}

// locateStep runs one open-loop locate step; a reference-rate step keeps
// its responses for the offline checks.
func (r *e2e) locateStep(rate float64, start time.Time, dur time.Duration) stepResult {
	s := newStep(rate, start, dur)
	var rec *refRecord
	if rate == r.w.ref {
		rec = &refRecord{entry: make([]int, s.n), body: make([][]byte, s.n)}
		r.refs = append(r.refs, rec)
	}
	res := s.run(r.load, r.locateIssue(s, rec))
	r.base += s.n
	res.Kind, res.Pass = "locate", res.meets(r.w.limitMs)
	r.record(res)
	if rec != nil {
		r.windows = append(r.windows, res)
	}
	return res
}

// startUpdateStream starts update-mix's open-loop updates over the run's
// span from t0; the returned channel delivers the stream's result.
func (r *e2e) startUpdateStream() <-chan stepResult {
	r.acked.Store(1)
	us := newStep(r.w.updateRate, r.t0, r.span)
	uc := &httpConn{addr: r.sv.leader.addr}
	done := make(chan stepResult, 1)
	req := updateRequest("default", updateDays)
	go func() {
		defer uc.close()
		done <- us.run([]*httpConn{uc}, func(c *httpConn, i int) error {
			status, body, err := c.do(req)
			if err != nil {
				return err
			}
			if status != 200 {
				return fmt.Errorf("update: status %d: %s", status, clip(body))
			}
			v, _ := leadingVersion(body)
			if want := r.acked.Load() + 1; v != want {
				return fmt.Errorf("update published v%d, want v%d", v, want)
			}
			r.acked.Store(v)
			r.updOK++
			return nil
		})
	}()
	return done
}

// finishUpdateStream records the stream's result once it has ended.
func (r *e2e) finishUpdateStream(done <-chan stepResult) {
	res := <-done
	res.Kind = "update"
	r.record(res)
	r.updLat = append(r.updLat, res.latency...)
	if res.Backlog || res.Unsent > 0 {
		r.out.problem("update stream fell behind: %d of %d updates unsent", res.Unsent, res.Unsent+res.Sent)
	}
}

// measure runs the reference windows. Between windows the workloads
// without an update stream take their share of postUpdates closed-loop
// updates, which the output checks replay; a window starts on its slot
// or, if those updates ran over, right after them.
func (r *e2e) measure() {
	w := r.w
	slot := r.span / refWindows
	win := slot * 9 / 10
	r.t0 = time.Now().Add(50 * time.Millisecond)
	var stream <-chan stepResult
	if w.updateRate > 0 {
		stream = r.startUpdateStream()
	}
	next := r.t0
	for k := 0; k < refWindows; k++ {
		r.locateStep(w.ref, next, win)
		if stream == nil {
			r.updateChunk(postUpdates / refWindows)
		}
		next = next.Add(slot)
		if soon := time.Now().Add(10 * time.Millisecond); stream == nil && next.Before(soon) {
			next = soon
		}
	}
	if stream != nil {
		r.finishUpdateStream(stream)
	}
}

// climb runs the ladder under plan p (with update-mix's update stream
// beside it) and returns the highest locate rate that met the limit.
func (r *e2e) climb(p plan) float64 {
	w := r.w
	r.t0 = time.Now().Add(50 * time.Millisecond)
	var stream <-chan stepResult
	if w.updateRate > 0 {
		stream = r.startUpdateStream()
	}
	next := r.t0
	maxRate := climb(w.ladder, bisectSteps, func(rate float64) bool {
		dur := p.stepDur
		if rate == w.ref {
			dur = p.refDur
		}
		res := r.locateStep(rate, next, dur)
		next = next.Add(dur + p.gap)
		return res.Pass
	})
	if stream != nil {
		r.finishUpdateStream(stream)
	}
	return maxRate
}

func (r *e2e) record(res stepResult) {
	r.out.steps = append(r.out.steps, res)
	r.out.attempted += res.Sent
	r.out.failed += res.Failed
	for _, err := range res.errs[:min(len(res.errs), 5)] {
		r.out.problems = append(r.out.problems, err.Error())
	}
}

// updateChunk takes n closed-loop updates. On a fleet they go round
// robin, and the resident-limit sites preceding the chunk are touched
// first: every update then reaches a parked site and rehydrates it, so
// the update sequence the replay must reproduce is known exactly.
// Elsewhere they go to the last site (query-* serve a probe site for
// this, so the queried site stays stationary).
func (r *e2e) updateChunk(n int) {
	names := r.wd.names
	if r.w.resident > 0 {
		for k := r.w.resident; k > 0; k-- {
			i := (r.nextSite - k + len(names)) % len(names)
			if _, err := r.ctl.post(r.probes[i].raw); err != nil {
				r.out.problem("touching %s: %v", names[i], err)
			}
		}
	}
	for j := 0; j < n; j++ {
		site := len(names) - 1
		if r.w.resident > 0 {
			site = r.nextSite % len(names)
			r.nextSite++
		}
		want := uint64(r.w.precondition) + 2
		for _, s := range r.updOps {
			if s == site {
				want++
			}
		}
		t := time.Now()
		status, body, err := r.ctl.do(updateRequest(names[site], updateDays))
		r.updLat = append(r.updLat, ms(time.Since(t)))
		r.out.attempted++
		if err != nil || status != 200 {
			r.out.problem("update %s: status %d err %v: %s", names[site], status, err, clip(body))
			continue
		}
		if v, _ := leadingVersion(body); v != want {
			r.out.problem("update %s published v%d, want v%d", names[site], v, want)
		}
		r.updOps = append(r.updOps, site)
	}
}

// snapshotJSON is the part of GET /snapshot the checks read.
type snapshotJSON struct {
	Version      uint64      `json:"version"`
	Fingerprints [][]float64 `json:"fingerprints"`
}

type positionJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type driftJSON struct {
	Detections       uint64 `json:"detections"`
	UpdatesTriggered uint64 `json:"updates_triggered"`
}

// collect gathers the untimed end-of-run evidence while the servers are
// up: the probe checks, every site's final snapshot and its drift
// counters.
func (r *e2e) collect() ([]snapshotJSON, error) {
	w := r.w
	if w.follower {
		fc := &httpConn{addr: r.sv.follower.addr}
		defer fc.close()
		final := r.acked.Load()
		deadline := time.Now().Add(10 * time.Second)
		for {
			h, err := getHealthz(fc)
			if err == nil && h.Version == final {
				break
			}
			if time.Now().After(deadline) {
				r.out.problem("follower did not reach v%d: %v (at %+v)", final, err, h)
				break
			}
			sleepUntil(time.Now().Add(time.Millisecond))
		}
		probe := r.queries[len(r.queries)-1].raw
		lb, lerr := r.ctl.post(probe)
		fb, ferr := fc.post(probe)
		switch {
		case lerr != nil || ferr != nil:
			r.out.problem("replica probe: leader %v, follower %v", lerr, ferr)
		case string(lb) != string(fb):
			r.out.problem("replica probe: leader answered %s, follower %s", clip(lb), clip(fb))
		}
	}
	if w.resident > 0 {
		// The site half a round away from the last updates is parked: the
		// first probe rehydrates it, the second finds it hot.
		i := (r.nextSite + len(r.wd.names)/2) % len(r.wd.names)
		cold, err1 := r.ctl.post(r.probes[i].raw)
		hot, err2 := r.ctl.post(r.probes[i].raw)
		switch {
		case err1 != nil || err2 != nil:
			r.out.problem("rehydration probe: %v, %v", err1, err2)
		case string(cold) != string(hot):
			r.out.problem("rehydration probe on %s: cold %s, hot %s", r.wd.names[i], clip(cold), clip(hot))
		}
	}
	fps := make([]snapshotJSON, len(r.wd.names))
	for i, name := range r.wd.names {
		b, err := r.ctl.get("/sites/" + name + "/snapshot")
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(b, &fps[i]); err != nil {
			return nil, fmt.Errorf("decoding %s snapshot: %w", name, err)
		}
		if !w.monitor {
			continue
		}
		b, err = r.ctl.get("/sites/" + name + "/drift")
		if err != nil {
			return nil, err
		}
		var d driftJSON
		if err := json.Unmarshal(b, &d); err != nil {
			return nil, fmt.Errorf("decoding %s drift: %w", name, err)
		}
		if d.Detections != 0 || d.UpdatesTriggered != 0 {
			r.out.problem("site %s: %d drift detections and %d auto-updates on a stationary workload", name, d.Detections, d.UpdatesTriggered)
		}
	}
	return fps, nil
}

// post sends a pre-built request and returns a copy of a 200 response.
func (h *httpConn) post(req []byte) ([]byte, error) {
	status, body, err := h.do(req)
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("status %d: %s", status, clip(body))
	}
	return append([]byte(nil), body...), nil
}

// replay rebuilds every site's update history in process.
func (r *e2e) replay() ([]*mirror, error) {
	env := pickEnv(r.w.env)
	mirrors := make([]*mirror, len(r.wd.names))
	for i := range mirrors {
		m, err := newMirror(env, serveSeed+uint64(i))
		if err != nil {
			return nil, err
		}
		for k := 0; k < r.w.precondition; k++ {
			if _, err := m.update(preconditionDays, false); err != nil {
				return nil, err
			}
		}
		mirrors[i] = m
	}
	for k := 0; k < r.updOK; k++ {
		if _, err := mirrors[0].update(updateDays, false); err != nil {
			return nil, err
		}
	}
	for _, site := range r.updOps {
		if _, err := mirrors[site].update(updateDays, r.w.resident > 0); err != nil {
			return nil, err
		}
	}
	return mirrors, nil
}

// verifyRefs checks every reference-window response against the mirror
// snapshot of the version it reports — positions bit-identical, finite
// and inside the area — and returns the localization errors.
func (r *e2e) verifyRefs(mirrors []*mirror) []float64 {
	var errs []float64
	bad := 0
	for _, rec := range r.refs {
		for i, body := range rec.body {
			if body == nil {
				continue
			}
			q := r.queries[rec.entry[i]]
			var resp locateResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				bad++
				continue
			}
			snap := mirrors[q.site].snaps[resp.Version]
			if snap == nil {
				bad++
				continue
			}
			got := resp.Positions
			if resp.Position != nil {
				got = []positionJSON{*resp.Position}
			}
			if len(got) != len(q.rss) {
				bad++
				continue
			}
			for k, rss := range q.rss {
				want, err := snap.Locate(rss)
				p := got[k]
				if err != nil || p.X != want.X || p.Y != want.Y || !r.inArea(p) {
					bad++
					break
				}
				errs = append(errs, math.Hypot(p.X-q.truth[k][0], p.Y-q.truth[k][1]))
			}
		}
	}
	if bad > 0 {
		r.out.failed += bad
		r.out.problems = append(r.out.problems, fmt.Sprintf("%d reference-window responses differ from the in-process replay", bad))
	}
	return errs
}

func (r *e2e) inArea(p positionJSON) bool {
	g := r.wd.geo
	return !math.IsNaN(p.X) && !math.IsNaN(p.Y) && p.X >= 0 && p.Y >= 0 && p.X <= g.WidthM && p.Y <= g.HeightM
}

// verifyFinal checks each site's final served snapshot against its
// replay and returns the mean reconstruction error across sites.
func (r *e2e) verifyFinal(mirrors []*mirror, fps []snapshotJSON) float64 {
	var errs []float64
	for i, m := range mirrors {
		fp, err := iupdater.MatrixFromRows(fps[i].Fingerprints)
		if err != nil {
			r.out.problem("site %s snapshot: %v", r.wd.names[i], err)
			continue
		}
		want := m.d.Snapshot()
		if fps[i].Version != want.Version() || !sameMatrix(fp, want.Fingerprints()) {
			r.out.problem("site %s serves v%d, replay has v%d with other fingerprints", r.wd.names[i], fps[i].Version, want.Version())
		}
		errs = append(errs, m.reconError(fp))
	}
	return mean(errs)
}

func sameMatrix(a, b iupdater.Matrix) bool {
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

// stepSummary renders the steps for the human-readable report, in the
// order they ran.
func stepSummary(steps []stepResult) []string {
	out := make([]string, 0, len(steps))
	for _, s := range steps {
		line := fmt.Sprintf("%-6s %8.1f/s: sent %6d failed %d unsent %d p50 %.3f ms p%g %.3f ms (service p50 %.3f p99 %.3f) gen-lag p99 %.3f ms backlog %v",
			s.Kind, s.Rate, s.Sent, s.Failed, s.Unsent, s.P50, s.TailP, s.Tail, s.SvcP50, s.SvcP99, s.LagP99, s.Backlog)
		if s.Kind == "locate" {
			// Only locate steps have a latency limit to meet.
			line += fmt.Sprintf(" pass %v", s.Pass)
		}
		out = append(out, line)
	}
	return out
}

// plan fixes the traced run's ladder: the reference rung gets 35 % of
// the ladder's time (more if it needs it to hold refSamples requests)
// and the other rungs and bisections share 55 %, with a short gap between
// steps for in-flight requests to drain. The ladder always runs the same
// number of steps, so it always takes the same time.
type plan struct {
	refDur, stepDur, gap time.Duration
}

func newPlan(d time.Duration, rungs int, ref float64) plan {
	return plan{
		refDur:  max(d*35/100, time.Duration(refSamples/ref*float64(time.Second))),
		stepDur: d * 55 / 100 / time.Duration(rungs-1+bisectSteps),
		gap:     min(max(d/100, 20*time.Millisecond), 200*time.Millisecond),
	}
}

// total is the nominal time the ladder takes.
func (p plan) total(rungs int) time.Duration {
	return p.refDur + time.Duration(rungs-1+bisectSteps)*p.stepDur + time.Duration(rungs+bisectSteps)*p.gap
}
