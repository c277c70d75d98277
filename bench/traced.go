package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"iupdater"
	"iupdater/internal/trace"
)

const (
	// passOps caps the locates an in-process pass replays, which bounds
	// the spans kept in memory.
	passOps = 20000
	// sideSample is how many measurements the search counters are read
	// over after the passes.
	sideSample = 2048
	// maxUnattributed is the largest share of a traced root that child
	// spans may leave uncovered; beyond it the breakdown is not trusted
	// and the run fails.
	maxUnattributed = 0.10
	// locatesPerUpdate keeps update-mix's in-process mix at the ratio of
	// its reference load: 1000 locates/s beside 20 updates/s.
	locatesPerUpdate = 50
)

// inproc is the set of library objects serve builds for a workload, built
// in process: testbed-surveyed deployments with the same options serve
// passes, registered in a Fleet (with serve's resident limit and monitor
// factories), durable stores, and for update-mix a Replica tailing the
// deployment's ServeRecords handler over an httptest server.
type inproc struct {
	w      workload
	names  []string
	fleet  *iupdater.Fleet
	sites  []*iupdater.Site
	tbs    []*iupdater.Testbed
	stores []*iupdater.Store
	ts     *httptest.Server
	rep    *iupdater.Replica
	// updTracer is the benchmark's own tracer: update traces are forced
	// through it so the pipeline's stage spans can be read back.
	updTracer *trace.Tracer

	// mu guards clocks and serializes testbed measurements, as serve's
	// per-site lock does.
	mu     sync.Mutex
	clocks []time.Duration

	buf bytes.Buffer
}

// newServeTracer mirrors the tracer serve attaches to its deployments
// with its default -trace-head of 100.
func newServeTracer() *trace.Tracer {
	return trace.New(trace.Config{
		HeadEvery: 100,
		SlowThreshold: map[string]time.Duration{
			"http.records": -1,
			"http.update":  2 * time.Second,
			"replica.poll": -1,
		},
	})
}

func buildInproc(w workload, dir string) (ip *inproc, err error) {
	env := pickEnv(w.env)
	ip = &inproc{w: w, names: w.siteNames(), updTracer: trace.New(trace.Config{RecentSize: 4, SlowSize: 1})}
	var fopts []iupdater.FleetOption
	if w.resident > 0 {
		fopts = append(fopts, iupdater.WithResidentLimit(w.resident))
	}
	ip.fleet = iupdater.NewFleet(fopts...)
	defer func() {
		if err != nil {
			ip.close()
		}
	}()
	tracer := newServeTracer()
	for i, name := range ip.names {
		tb := iupdater.NewTestbed(env, serveSeed+uint64(i))
		ip.tbs = append(ip.tbs, tb)
		ip.clocks = append(ip.clocks, 0)
		opts := []iupdater.Option{iupdater.WithWorkers(0), iupdater.WithUpdateConcurrency(1), iupdater.WithTracer(tracer, name)}
		var st *iupdater.Store
		if w.durable {
			if st, err = iupdater.OpenStore(filepath.Join(dir, name), iupdater.WithRetention(w.retain)); err != nil {
				return nil, err
			}
			opts = append(opts, iupdater.WithStore(st))
		}
		d, _, err := tb.Deploy(0, 50, opts...)
		if err != nil {
			if st != nil {
				st.Close()
			}
			return nil, err
		}
		cfg := iupdater.SiteConfig{Deployment: d}
		if w.monitor {
			cfg.MonitorFactory = ip.monitorFactory(i)
		}
		site, err := ip.fleet.AddSite(name, cfg)
		if err != nil {
			if st != nil {
				st.Close()
			}
			return nil, err
		}
		ip.sites = append(ip.sites, site)
		if st != nil {
			ip.stores = append(ip.stores, st)
		}
	}
	for i := range ip.sites {
		for k := 0; k < w.precondition; k++ {
			if _, err := ip.update(i, preconditionDays, nil); err != nil {
				return nil, err
			}
		}
	}
	if w.follower {
		d, _, err := ip.sites[0].Hydrate()
		if err != nil {
			return nil, err
		}
		ip.ts = httptest.NewServer(d.ServeRecords())
		if ip.rep, err = iupdater.OpenReplica(ip.ts.URL); err != nil {
			return nil, err
		}
		if err := ip.waitReplica(d.Version()); err != nil {
			return nil, err
		}
	}
	return ip, nil
}

// monitorFactory builds site i's drift monitor the way serve does: its
// sampler measures the site's testbed at the site's simulated clock.
func (ip *inproc) monitorFactory(i int) func(*iupdater.Deployment) (*iupdater.Monitor, error) {
	tb := ip.tbs[i]
	sampler := iupdater.SamplerFunc(func(refs []int) (iupdater.UpdateInputs, error) {
		ip.mu.Lock()
		defer ip.mu.Unlock()
		at := ip.clocks[i]
		xr, _ := tb.ReferenceMatrix(at, refs)
		return iupdater.UpdateInputs{NoDecrease: tb.NoDecreaseMatrix(at), Known: tb.Mask(), References: xr}, nil
	})
	return func(d *iupdater.Deployment) (*iupdater.Monitor, error) {
		return iupdater.NewMonitor(d, sampler)
	}
}

func (ip *inproc) close() {
	if ip.rep != nil {
		ip.rep.Close()
	}
	if ip.ts != nil {
		ip.ts.Close()
	}
	ip.fleet.Close()
}

func (ip *inproc) waitReplica(version uint64) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := ip.rep.WaitVersion(ctx, version)
	return err
}

// update takes one update of d simulated days on site i as serve's
// handler does: sample the testbed at the advanced clock, then
// Deployment.UpdateTraced. With a recorder that is on, the update runs
// under a forced trace of the benchmark's tracer and the pipeline's own
// stage spans are imported.
func (ip *inproc) update(i int, d float64, rec *recorder) (uint64, error) {
	var tr *trace.Trace
	if rec != nil && rec.on {
		tr = ip.updTracer.Start("update", ip.names[i])
		tr.Force()
	}
	v, err := ip.updateTraced(i, d, tr)
	if tr != nil {
		id := tr.ID()
		tr.Finish()
		td, _ := ip.updTracer.Get(id)
		rec.importTrace(td)
	}
	return v, err
}

func (ip *inproc) updateTraced(i int, d float64, tr *trace.Trace) (uint64, error) {
	dep, _, err := ip.sites[i].Hydrate()
	if err != nil {
		return 0, err
	}
	refs, err := dep.ReferenceLocations()
	if err != nil {
		return 0, err
	}
	sp := tr.StartSpan(iupdater.StageSample)
	tb := ip.tbs[i]
	ip.mu.Lock()
	at := ip.clocks[i] + days(d)
	noDec := tb.NoDecreaseMatrix(at)
	known := tb.Mask()
	xr, _ := tb.ReferenceMatrix(at, refs)
	ip.mu.Unlock()
	sp.End()
	snap, err := dep.UpdateTraced(tr, noDec, known, xr)
	if err != nil {
		return 0, err
	}
	ip.mu.Lock()
	ip.clocks[i] = at
	ip.mu.Unlock()
	return snap.Version(), nil
}

// locateRequest and locateResponse mirror serve's JSON shapes.
type locateRequest struct {
	RSS   []float64   `json:"rss,omitempty"`
	Batch [][]float64 `json:"batch,omitempty"`
}

type locateResponse struct {
	Version   uint64         `json:"version"`
	Position  *positionJSON  `json:"position,omitempty"`
	Positions []positionJSON `json:"positions,omitempty"`
}

// locate serves one locate request body the way serve's handler does,
// with a span around each layer's call: JSON decode, site resolution
// (rehydrating a parked site), the search, the monitor's observation
// and the JSON encode.
func (ip *inproc) locate(q query, rec *recorder) (locateResponse, error) {
	site := ip.sites[q.site]
	parked := !site.Hydrated()
	root := rec.root("locate")
	sp := rec.begin("http.decode", root)
	var req locateRequest
	err := json.NewDecoder(bytes.NewReader(q.body)).Decode(&req)
	rec.end(sp)
	if err != nil {
		return locateResponse{}, err
	}
	sp = rec.begin("fleet.hydrate", root)
	d, mon, err := site.Hydrate()
	rec.end(sp)
	if err != nil {
		return locateResponse{}, err
	}
	snap := d.Snapshot()
	resp := locateResponse{Version: snap.Version()}
	if req.RSS != nil {
		sp = rec.begin("loc.locate", root)
		p, _, err := snap.LocateWithStats(req.RSS)
		rec.end(sp)
		if err != nil {
			return resp, err
		}
		resp.Position = &positionJSON{X: p.X, Y: p.Y}
	} else {
		sp = rec.begin("loc.batch", root)
		ps, err := snap.LocateBatch(context.Background(), req.Batch, 0)
		rec.end(sp)
		if err != nil {
			return resp, err
		}
		resp.Positions = make([]positionJSON, len(ps))
		for k, p := range ps {
			resp.Positions[k] = positionJSON{X: p.X, Y: p.Y}
		}
	}
	if mon != nil {
		sp = rec.begin("monitor.observe", root)
		if req.RSS != nil {
			err = mon.Observe(req.RSS)
		}
		for _, rss := range req.Batch {
			err = errors.Join(err, mon.Observe(rss))
		}
		rec.end(sp)
		if err != nil {
			return resp, err
		}
	}
	sp = rec.begin("http.encode", root)
	ip.buf.Reset()
	err = json.NewEncoder(&ip.buf).Encode(resp)
	rec.end(sp)
	rec.end(root)
	if err != nil {
		return resp, err
	}
	if parked {
		// What the rehydration read from the store, timed on its own
		// outside the request: the latest version through its delta chain.
		st := d.Store()
		sp := rec.root("store.load")
		_, _, err = st.SnapshotAt(st.LatestVersion())
		rec.end(sp)
	}
	return resp, err
}

// op is one replayed operation: a locate of queries[q], or (q < 0) an
// update of site 0.
type op struct{ q int }

// ops lists the in-process replay: the same request bodies as the HTTP
// phase, and for update-mix one update per slot followed by that slot's
// locates at the reference ratio.
func (r *e2e) ops() []op {
	var out []op
	if r.w.updateRate == 0 {
		for k := 0; k < passOps; k++ {
			out = append(out, op{k % len(r.queries)})
		}
		return out
	}
	for s := 0; s < len(r.queries)/slotQueries; s++ {
		out = append(out, op{-1})
		for m := 0; m < locatesPerUpdate; m++ {
			out = append(out, op{s*slotQueries + m%slotQueries})
		}
	}
	return out
}

// passResult is what one replay pass did.
type passResult struct {
	ops, locates, updates, failed int
	elapsed                       time.Duration
	problems                      []string
}

func (pr *passResult) problem(format string, args ...any) {
	pr.failed++
	if len(pr.problems) < 5 {
		pr.problems = append(pr.problems, fmt.Sprintf(format, args...))
	}
}

// pass replays ops closed-loop on one goroutine until budget is spent.
func (ip *inproc) pass(r *e2e, ops []op, rec *recorder, budget time.Duration) passResult {
	var pr passResult
	start := time.Now()
	for _, o := range ops {
		if pr.ops > 0 && time.Since(start) > budget {
			break
		}
		pr.ops++
		if o.q < 0 {
			pr.updates++
			v, err := ip.update(0, updateDays, rec)
			if err != nil {
				pr.problem("update: %v", err)
				continue
			}
			if ip.rep != nil {
				sp := rec.root("replica.apply")
				err := ip.waitReplica(v)
				rec.end(sp)
				if err != nil {
					pr.problem("replica: %v", err)
				}
			}
			continue
		}
		pr.locates++
		q := r.queries[o.q]
		resp, err := ip.locate(q, rec)
		if err != nil {
			pr.problem("locate: %v", err)
			continue
		}
		ps := resp.Positions
		if resp.Position != nil {
			ps = []positionJSON{*resp.Position}
		}
		for _, p := range ps {
			if !r.inArea(p) {
				pr.problem("locate answered (%g, %g), outside the area", p.X, p.Y)
				break
			}
		}
	}
	pr.elapsed = time.Since(start)
	return pr
}

// runTraced measures per-layer metrics. The HTTP phase (half of
// --seconds) climbs the workload's rate ladder against real servers,
// which gives the highest rate that meets the limit and, at the
// reference rung, the service time the HTTP layer adds. Then the same
// requests are replayed in process twice on freshly built objects, first
// with spans off for a fifth of --seconds and then, for the same
// operations, with spans on. The per-layer numbers come from the second
// pass; the difference between the two is the tracing overhead.
func runTraced(w workload, cfg runConfig) (*outcome, error) {
	ladder := newPlan(cfg.duration(0.5), len(w.ladder), w.ref)
	span := ladder.total(len(w.ladder))
	if w.updateRate > 0 {
		// The update stream outlasts a short ladder until it holds
		// postUpdates updates, enough for update_p95_ms.
		span = max(span, time.Duration(postUpdates/w.updateRate*float64(time.Second)))
	}
	r := newE2E(w, cfg, span)
	o := &r.out

	sv, _, err := startServers(w, cfg, filepath.Join(cfg.work, "traced"))
	if err != nil {
		return nil, err
	}
	r.connect(sv)
	err = r.precondition()
	var maxRate float64
	if err == nil {
		maxRate = r.climb(ladder)
		if w.updateRate == 0 {
			r.updateChunk(postUpdates)
		}
	}
	r.disconnect()
	sv.stop()
	if err != nil {
		return nil, err
	}
	ref := r.windows[0]
	var reqBytes, respBytes []float64
	for i, b := range r.refs[0].body {
		if b != nil {
			reqBytes = append(reqBytes, float64(len(r.queries[r.refs[0].entry[i]].body)))
			respBytes = append(respBytes, float64(len(b)))
		}
	}

	ops := r.ops()
	off, _, err := r.replayPass(w, ops, newRecorder(false), cfg.duration(0.2), "off")
	if err != nil {
		return nil, err
	}
	rec := newRecorder(true)
	on, lay, err := r.replayPass(w, ops[:off.ops], rec, time.Duration(math.MaxInt64), "on")
	if err != nil {
		return nil, err
	}
	for _, pr := range []passResult{off, on} {
		o.attempted += pr.ops
		o.failed += pr.failed
		o.problems = append(o.problems, pr.problems...)
	}
	if err := writeSpans(filepath.Join(cfg.out, w.name+".trace.json"), w.name, rec.spans); err != nil {
		return nil, err
	}

	st := aggregate(rec.spans)
	// p returns the p-th percentile of a span's durations in µs (0 for a
	// layer this workload never reaches).
	p := func(name string, q float64) float64 {
		d := st.durs[name]
		if len(d) == 0 {
			return 0
		}
		if q == 50 {
			return median(d)
		}
		v, err := tail(d, q)
		if err != nil {
			o.shortfalls = append(o.shortfalls, name+": "+err.Error())
		}
		return v
	}
	perLocate := func(n uint64) float64 { return float64(n) / float64(max(on.locates, 1)) }
	rootP50 := p("locate", 50)
	overhead := 100 * (on.elapsed.Seconds()/float64(on.ops)/(off.elapsed.Seconds()/float64(off.ops)) - 1)

	o.add("http.residual_p50_us", "us", ref.SvcP50*1e3-rootP50)
	o.add("http.request_bytes", "B", mean(reqBytes))
	o.add("http.response_bytes", "B", mean(respBytes))
	o.add("http.decode_p50_us", "us", p("http.decode", 50))
	o.add("http.encode_p50_us", "us", p("http.encode", 50))
	o.add("gen.lag_p99_ms", "ms", ref.LagP99)
	o.add("locate_max_rps", "1/s", maxRate)
	o.add("locate_p50_ms", "ms", ref.P50)
	o.tailMetric("locate_p99_ms", ref.latency, 99)
	o.add("update_p50_ms", "ms", median(r.updLat))
	o.tailMetric("update_p95_ms", r.updLat, 95)
	o.add("query.root_p50_us", "us", rootP50)
	o.add("fleet.hydrate_p50_us", "us", p("fleet.hydrate", 50))
	o.add("fleet.hydrate_p99_us", "us", p("fleet.hydrate", 99))
	o.add("fleet.rehydrations_per_query", "ratio", perLocate(lay.rehydrations))
	o.add("fleet.evictions_per_query", "ratio", perLocate(lay.evictions))
	o.add("store.load_p50_us", "us", p("store.load", 50))
	o.add("loc.locate_p50_us", "us", p("loc.locate", 50))
	o.add("loc.locate_p99_us", "us", p("loc.locate", 99))
	o.add("loc.batch_p50_us", "us", p("loc.batch", 50))
	o.add("loc.column_evals_per_query", "count", lay.evalsPerQuery)
	o.add("loc.column_eval_frac", "ratio", lay.evalsPerQuery/float64(r.wd.geo.Links*r.wd.geo.PerStrip))
	o.add("loc.rounds_per_query", "count", lay.roundsPerQuery)
	o.add("monitor.observe_p50_us", "us", p("monitor.observe", 50))
	o.add("monitor.detections", "count", float64(lay.detections))
	o.add("monitor.auto_updates", "count", float64(lay.autoUpdates))
	o.add("testbed.sample_p50_ms", "ms", p(iupdater.StageSample, 50)/1e3)
	o.add("deployment.update_p50_ms", "ms", p("update", 50)/1e3)
	o.add("core.reconstruct_p50_ms", "ms", p(iupdater.StageReconstruct, 50)/1e3)
	o.add("deployment.snapshot_build_p50_us", "us", p("snapshot.build", 50))
	o.add("store.persist_p50_us", "us", p(iupdater.StagePersist, 50))
	o.add("deployment.swap_p50_us", "us", p(iupdater.StageSwap, 50))
	o.add("update.unattributed_frac", "ratio", st.unattributed("update"))
	o.add("store.bytes_per_update", "B", lay.bytesPerRecord)
	o.add("store.delta_frac", "ratio", lay.deltaFrac)
	o.add("store.compactions", "count", float64(lay.compactions))
	o.add("replica.apply_lag_p50_ms", "ms", p("replica.apply", 50)/1e3)
	o.add("replica.reconnects", "count", float64(lay.reconnects))
	o.add("replica.rebootstraps", "count", float64(lay.rebootstraps))
	o.add("query.unattributed_frac", "ratio", st.unattributed("locate"))
	o.add("trace.overhead_pct", "%", overhead)

	if w.monitor && (lay.detections != 0 || lay.autoUpdates != 0) {
		o.problem("%d drift detections and %d auto-updates on a stationary workload", lay.detections, lay.autoUpdates)
	}
	for _, root := range []string{"locate", "update"} {
		if u := st.unattributed(root); u > maxUnattributed {
			o.problem("%.1f %% of the traced %s time is outside every child span (limit %.0f %%)", 100*u, root, 100*maxUnattributed)
		}
	}
	return o, nil
}

// layerCounts are the per-layer counts read from the library after the
// spans-on pass.
type layerCounts struct {
	rehydrations, evictions       uint64
	evalsPerQuery, roundsPerQuery float64
	detections, autoUpdates       uint64
	bytesPerRecord, deltaFrac     float64
	compactions                   uint64
	reconnects, rebootstraps      uint64
}

// replayPass builds fresh in-process objects, replays ops through them
// and reads the layers' counters.
func (r *e2e) replayPass(w workload, ops []op, rec *recorder, budget time.Duration, tag string) (passResult, layerCounts, error) {
	var lc layerCounts
	dir := filepath.Join(r.cfg.work, "inproc-"+tag)
	defer os.RemoveAll(dir)
	ip, err := buildInproc(w, dir)
	if err != nil {
		return passResult{}, lc, err
	}
	defer ip.close()
	before := ip.fleet.Stats()
	pr := ip.pass(r, ops, rec, budget)
	after := ip.fleet.Stats()
	lc.rehydrations = after.Rehydrations - before.Rehydrations
	lc.evictions = after.Evictions - before.Evictions
	if !rec.on {
		return pr, lc, nil
	}

	if ip.rep != nil {
		s := ip.rep.Status()
		lc.reconnects, lc.rebootstraps = s.Reconnects, s.Rebootstraps
	}
	var records, deltas int
	var bytes int64
	for _, st := range ip.stores {
		for _, ri := range st.Records() {
			records++
			bytes += ri.Bytes
			if ri.Kind == "delta" {
				deltas++
			}
		}
		lc.compactions += st.Compactions()
	}
	if records > 0 {
		lc.bytesPerRecord = float64(bytes) / float64(records)
		lc.deltaFrac = float64(deltas) / float64(records)
	}

	// Search work per query, counted exactly by LocateWithStats over the
	// first measurements replayed, against each site's current snapshot.
	var evals, rounds, n float64
	for _, o := range ops {
		if o.q < 0 || n >= sideSample {
			continue
		}
		q := r.queries[o.q]
		d, _, err := ip.sites[q.site].Hydrate()
		if err != nil {
			return pr, lc, err
		}
		for _, rss := range q.rss {
			_, ls, err := d.Snapshot().LocateWithStats(rss)
			if err != nil {
				return pr, lc, err
			}
			evals += float64(ls.ColumnEvals)
			rounds += float64(ls.Rounds)
			n++
		}
	}
	lc.evalsPerQuery, lc.roundsPerQuery = evals/max(n, 1), rounds/max(n, 1)

	for _, site := range ip.sites {
		_, mon, err := site.Hydrate()
		if err != nil {
			return pr, lc, err
		}
		if mon != nil {
			s := mon.Stats()
			lc.detections += s.Detections
			lc.autoUpdates += s.UpdatesTriggered
		}
	}
	return pr, lc, nil
}
