// Package iupdater is a Go implementation of iUpdater, the low-cost RSS
// fingerprint updating system for device-free indoor localization from
//
//	Chang, Xiong, Wang, Chen, Hu, Fang.
//	"iUpdater: Low Cost RSS Fingerprints Updating for Device-Free
//	Localization." IEEE ICDCS 2017.
//
// Device-free localization tracks a person who carries no device, by the
// way their body perturbs the received signal strength (RSS) of wireless
// links crossing a monitored area. Fingerprint approaches record an RSS
// signature per grid location, but the database goes stale within days as
// the environment drifts, and re-surveying the whole grid is prohibitively
// labor intensive.
//
// iUpdater refreshes the entire M-link x N-location fingerprint matrix
// from fresh measurements at only r = M reference locations:
//
//   - the no-decrease entries (target outside a link's sensitive zone) are
//     measured with zero labor, without the target;
//   - the reference locations are the maximum independent columns (MIC) of
//     the previous matrix, tied to all other columns by a low-rank
//     representation (LRR) correlation matrix;
//   - a self-augmented regularized SVD completes the matrix under two
//     structural constraints: RSS continuity between neighboring locations
//     and similarity between adjacent links.
//
// # Public API
//
// The Deployment type is the serving API: a long-lived, concurrency-safe
// service for one physical deployment. It owns a versioned fingerprint
// store — every Update or Install publishes an immutable Snapshot swapped
// in behind an atomic pointer — so continuous database refresh runs while
// localization traffic (Locate, LocateCell, LocateMultiple, and the
// worker-pool-backed LocateBatch) reads lock-free. Updates exposes a
// subscription over version rollovers; Snapshot pins one version for
// consistent multi-query reads. Data crosses the API boundary as the
// typed Matrix and Mask values (flat column-major storage, no per-call
// row-slice conversion).
//
// Updates subscriptions never block the write path: each subscriber gets
// a small buffered channel, and a publish that finds the buffer full
// drops that delivery rather than stall (or slow) the snapshot swap. A
// slow consumer therefore sees a gap-free prefix of versions followed by
// gaps, never stale blocking; poll Deployment.Snapshot for the
// authoritative latest version, which is always current regardless of
// what the subscription delivered.
//
// The Testbed type provides the full simulated deployment (radio
// propagation, human target, drift, survey campaigns) used by the
// examples and by the experiment reproduction in internal/eval, and
// cmd/iupdater's serve mode runs a Deployment behind an HTTP/JSON
// interface (profile it live with the -pprof flag, attach a drift
// monitor with -monitor).
//
// # Drift monitoring — the closed loop
//
// The paper makes updating cheap; the Monitor type decides when to
// update, closing the detect -> measure -> update loop with no human
// watching accuracy dashboards. Attach one to a Deployment with
// NewMonitor and feed it every served online measurement via
// Monitor.Observe:
//
//   - Each observation is scored with a staleness residual: the RMS
//     distance (dB) between the mean-centered query and its
//     best-matching mean-centered fingerprint column in the current
//     snapshot. Centering removes common-mode drift (which localization
//     is insensitive to), so the residual rises exactly when the
//     per-link shape of the environment has changed under the database.
//   - The residual stream feeds a pluggable self-calibrating
//     DriftDetector (internal/drift): the built-in sliding-window
//     mean-shift detector reacts within about a window to abrupt
//     environment changes (NewMeanShiftDetector with WithDriftDetector
//     tunes it). It learns the stationary floor from the first
//     observations after every snapshot change.
//   - A detection (the detector flagging for WithDriftHysteresis
//     consecutive queries) triggers Deployment.Update on a background
//     goroutine: the Monitor collects the K reference columns through
//     the ReferenceSampler (Testbed.Sampler in simulation, a
//     MatrixSampler or SamplerFunc bridging a real radio frontend) and
//     publishes the refreshed snapshot. WithUpdateCooldown rate-limits
//     how often the (labor-costing) reference survey may be dispatched;
//     suppressed detections are counted.
//   - Monitor.Stats exposes the loop's counters (queries seen, last
//     residual, drift score, detections, updates triggered/completed,
//     suppressions); cmd/iupdater serve republishes them at GET /drift.
//
// Observe is allocation-free in steady state (~1 µs per query on the
// office testbed), so monitoring adds nothing to the serving tail. The
// end-to-end loop is scored by internal/eval's drift scenario: a mid-run
// environment flip is detected within tens of queries and the
// auto-triggered update restores database accuracy to within 0.1 dB of
// an operator-triggered one, with zero false detections over 10k
// stationary queries.
//
// # Durability and fleet serving
//
// A Deployment is in-memory by default: a restart loses every published
// version and forces the cold re-survey the paper exists to avoid. The
// Store type makes publishing durable. OpenStore opens one directory per
// site holding an append-only, checksummed binary log of snapshot
// records (per record: magic, version, length, CRC32 header, then the
// geometry + column-major fingerprint payload — see internal/store for
// the exact layout). Attach it with WithStore and every publish (the
// initial survey, each Update/Install, every monitor auto-update,
// rollbacks) is written and fsynced before the new snapshot becomes
// visible to queries: any version a query ever observed is on disk.
// Persistence runs on the serialized write path; the lock-free query
// path never touches disk.
//
// Every publish is persisted as one full snapshot record. An update
// reconstructs the whole M×N fingerprint matrix from the no-decrease
// scan and a few reference columns, so every column changes and a
// column diff would save nothing: on the office geometry each update
// writes one 6197-byte record. Stores written by earlier versions may
// also hold delta records (the changed column indices and payloads
// only). They are still read: SnapshotAt, warm starts, rollbacks,
// rehydration and replication resolve a delta's chain back to the
// nearest full record and replay the deltas, so callers never see the
// encoding. Compaction copies the retained records; when the retained
// range starts with a delta, that version is rewritten as a full record
// and the deltas after it still resolve. Store.Records (surfaced per
// site by Fleet Summaries and the serve API) reports each retained
// version's record kind and on-disk bytes.
//
// The durability contract is the standard write-ahead one: record
// appends are a single write + fsync before the snapshot swap, so a
// crash leaves at most one torn tail record, which the next OpenStore
// detects (length/CRC) and truncates, recovering to the newest durable
// version instead of failing open — and since a delta is only valid
// over its predecessor, a truncated base drops its dependent deltas
// with it; compaction and auxiliary state writes go through temp-file +
// fsync + rename, so they are atomic against crashes.
// OpenDeployment warm-starts a Deployment from a store's latest record
// — same version number, bit-identical localization, no re-survey —
// and a Monitor constructed over a stored Deployment resumes its
// previous life: counters continue and the calibrated detector floor is
// re-installed (when the snapshot version still matches) instead of
// burning a fresh calibration window. The monitor writes that state
// blob durably when calibration completes, when an auto-update
// finishes, on Sync and on Close — never on a steady-state Observe, and
// never when a fleet parks the site (below). A crash therefore loses at
// most a site's counters since the last of those writes, whether the
// site was resident or parked; the calibrated floor was written the
// moment it was learned and is never lost.
//
// History is append-only and versions strictly increase, which makes
// rollback an ordinary publish: Deployment.Rollback(v) loads a retained
// version and republishes its fingerprints under the next version
// number. WithRetention bounds how many versions a store keeps (older
// records are removed by compaction and leave the rollback window);
// the default keeps everything.
//
// Where those bytes land is a pluggable seam: a Store writes through
// the Backend interface (OpenStore's WithBackend option), whose
// contract is exactly the durability story above — append-only files
// with explicit sync points, atomic temp+sync+rename replace, and
// stable listing. The default backend is the site directory with the
// on-disk format unchanged; NewMemoryBackend keeps the same record log
// and crash-recovery semantics in RAM (sync points are no-ops), which
// is what makes hundred-site fleets cheap in tests and gives ephemeral
// sites full store behavior without touching disk. Backends outside
// the process (object stores) slot into the same seam.
//
// The Fleet type scales this from one site to many: a registry of named
// site deployments (each with its own store directory, monitor and
// version line), with one Close for the whole lifecycle and Summaries
// as the aggregated dashboard. The registry is dynamic — AddSite and
// RemoveSite are safe while queries are in flight, so sites come and
// go without a restart. It is the only site registry: serve mode keeps
// no site table of its own, and looks every request's site up in the
// fleet; what serve needs per site beyond the deployment (testbed,
// simulated clock, bearer token) rides on the fleet Site as the opaque
// SiteConfig.Payload.
//
// Thousands of registered sites do not mean thousands of resident
// snapshot matrices: WithResidentLimit(n) caps how many sites keep a
// materialized Deployment (snapshot, locate index, monitor) in memory.
// Past the cap the least-recently-queried durable site is parked —
// its in-RAM state is released, its store stays open — and the next
// query re-materializes it from the record log, bit-identical at the
// same version (the
// park-to-serve latency is exported as a histogram, see
// Observability). Site.Hydrate is the query-path accessor: on a
// resident site it is one atomic load plus an LRU touch —
// lock-free, allocation-free — and only a parked site pays the
// rehydration. Sites that cannot be restored are never parked:
// in-memory sites (no store) and monitored sites registered without a
// MonitorFactory stay resident regardless of pressure. Summaries
// reports parked sites from their store (version, retained records)
// without rehydrating them — a dashboard scrape never defeats the LRU.
// A site's locate-latency, update-stage and publish counters belong to
// the site, not to the materialized Deployment: every re-materialized
// Deployment continues them, so parking never resets what they
// measured. SiteSummary carries them, with the store's compaction
// count, for a parked site too, so a /metrics scrape keeps a parked
// site's series without rehydrating it. Parking writes nothing to
// disk: the monitor's counters, calibrated floor and the floor's
// snapshot version stay in memory with the site, and the monitor its
// next rehydration builds resumes from them without reading the store,
// so a cold query only reads. Fleet Close and RemoveSite write each
// parked site's monitor state to its store once, and Close reports a
// failed write by site name.
//
// cmd/iupdater serve exposes the fleet over HTTP:
//
//	GET    /sites                        fleet dashboard (version, search tier, drift, hydration per site)
//	GET    /sites/{name}                 one site's summary incl. retained versions
//	PUT    /sites/{name}                 create a site at runtime (JSON: env, seed, token, monitor)
//	DELETE /sites/{name}                 remove a site from the fleet
//	POST   /sites/{name}/locate          localization (single or batch)
//	POST   /sites/{name}/update          database refresh (raw, or testbed-driven: days, clock <= 3650 days)
//	GET    /sites/{name}/snapshot        the serving fingerprint database
//	GET    /sites/{name}/drift           monitor counters (404 without -monitor)
//	POST   /sites/{name}/rollback?version=N  republish a retained version
//	GET    /sites/{name}/records         record-log stream for follower replicas
//	GET    /metrics                      fleet-wide Prometheus text exposition
//	GET    /traces                       recent + slow retained traces (see Tracing)
//	GET    /traces/{id}                  one trace's full span tree
//	GET    /healthz                      liveness (serving version + site count)
//
// A testbed-driven update ({"days": d}) advances the site's simulated
// clock by d > 0 days. One that would take the clock past its horizon
// of 3650 days (ten years) answers 400 and changes neither the version
// nor the clock.
//
// A site created with a token requires it — as an Authorization:
// Bearer header, compared in constant time — on every mutating route
// (update, rollback, DELETE); reads stay open, and a missing or wrong
// token answers 401 with WWW-Authenticate: Bearer. Lifecycle mutations
// on a replica site answer 409 (a follower is torn down by stopping
// the follow, not through the leader-facing API). Under -data-dir,
// API-created sites are recorded in a fleet manifest — an ordinary
// store at <data-dir>/fleet.manifest, written through the same
// atomic-replace path as any auxiliary state — and the next serve life
// re-creates them warm, tokens included; flag-declared sites win name
// conflicts, and a manifest entry whose store fails to open is logged
// and kept rather than failing boot.
//
// The original single-site routes (/locate, /update, /snapshot, /drift,
// /rollback, /records) remain as aliases for the default site: the
// first site registered (the first -sites entry, the replicate mode's
// site), fixed by name from then on. Deleting it makes the aliases
// answer 404 until a site of the same name is registered again; a site
// registered under any other name never becomes the default. Every
// route answers wrong-method hits with 405 and an Allow header. Sites
// are declared with -sites name=env,...; -data-dir roots the per-site
// stores and makes restarts warm; -retain bounds each store; -resident
// caps how many sites stay materialized (0 = all resident).
//
// # Replication — the record log as a wire protocol
//
// The millions-of-users read path scales out as leader/follower
// replication, and the wire protocol is the store's record log itself:
// Deployment.ServeRecords exposes GET .../records (per site in serve
// mode: GET /sites/{name}/records), which streams the retained record
// frames, in their exact on-disk framing, from a requested version:
// full snapshots, and the changed-column deltas a store written by an
// earlier version may still hold. The Replica type is the follower:
// OpenReplica tails that endpoint (long-poll, resuming after
// disconnects under capped exponential backoff with jitter), feeds
// every frame through the same CRC recheck and delta structural
// validation the store runs during crash recovery, and publishes each
// materialized snapshot through the read path a Deployment embeds too
// (one atomic snapshot pointer, one instrumented Locate). Replica.Locate
// is therefore lock-free and bit-identical to the
// leader's at the same version, and a torn, corrupted or replayed
// frame is rejected without state change — the follower just re-polls
// from its last applied version.
//
// Resume semantics: from=0 bootstraps at the leader's newest full
// record (everything later resolves against it); from=V resumes after
// V-1. A resume point older than the leader's compaction horizon
// answers 410 Gone, telling the follower its chain is gone for good —
// it re-bootstraps from the newest full record, as does a follower
// whose applies keep failing (divergent local state). The leader's
// durability contract is unchanged by replication: followers only read
// the log, fsync-before-visibility still happens on the leader's write
// path, and a follower holds no disk state while following.
//
// A follower registers in a Fleet with AddReplica (replication lag
// shows in Summaries and under GET /sites; mutating routes answer 409),
// and serve mode attaches one with -follow name=url (or the dedicated
// replicate mode). Replica.Promote turns the follower into the writer
// when the leader retires: following stops, and the returned
// Deployment continues the same monotone version line from the exact
// takeover version — seeding an attached store with a full snapshot at
// that version first, so the handover itself is durable. Promotion is
// one-way and at-most-once; there is deliberately no leader election.
//
// # Observability — /metrics, drift attribution, adaptive cooldown
//
// The internal/obs package is a zero-dependency metrics layer: atomic
// counters and gauges, fixed-bucket latency histograms whose Observe is
// lock-free and allocation-free (enforced by testing.AllocsPerRun), and
// a writer for the Prometheus text exposition format 0.0.4 — no client
// library, nothing on the query hot path but a few atomic adds.
// cmd/iupdater serve aggregates every site into one GET /metrics,
// rendered from one ordered table of families over Fleet.Summaries:
// each family is written whole (HELP, TYPE, then its samples), and each
// per-site sample carries a site label, so one scrape covers the whole
// fleet without rehydrating a parked site:
//
//	iupdater_locate_latency_seconds        histogram {site}       end-to-end locate latency
//	iupdater_snapshot_version              gauge     {site}       serving snapshot version
//	iupdater_search_queries_total          counter   {site,tier}  candidate searches answered
//	iupdater_search_column_evals_total     counter   {site,tier}  full column distance evaluations
//	iupdater_search_shard_evals_total      counter   {site,tier}  coarse shard-routing evaluations
//	iupdater_drift_residual_db             gauge     {site}       latest residual (dB)
//	iupdater_drift_score                   gauge     {site}       drift-detector score
//	iupdater_drift_cooldown_remaining      gauge     {site}       queries until the next update may fire
//	iupdater_drift_queries_total           counter   {site}       measurements observed
//	iupdater_drift_detections_total        counter   {site}       post-hysteresis detections
//	iupdater_drift_updates_triggered_total counter   {site}       auto-updates started
//	iupdater_drift_updates_completed_total counter   {site}       auto-updates published
//	iupdater_drift_update_errors_total     counter   {site}       auto-updates failed
//	iupdater_drift_detections_suppressed_total counter {site}     detections eaten by cooldown/in-flight
//	iupdater_drift_link_error_db           gauge     {site,link}  top-k per-link attribution (dB)
//	iupdater_store_bytes                   gauge     {site}       retained record bytes on disk
//	iupdater_store_records                 gauge     {site,kind}  retained records by kind (full/delta)
//	iupdater_store_compactions_total       counter   {site}       history-dropping log rewrites
//	iupdater_sites                         gauge     {state}      registered sites by residency (resident/parked)
//	iupdater_site_evictions_total          counter   {}           sites parked by the resident limit
//	iupdater_site_rehydrations_total       counter   {}           parked sites re-materialized by a query
//	iupdater_site_rehydration_seconds      histogram {}           park-to-serve latency of those queries
//	iupdater_replica_applied_version       gauge     {site}       newest version the follower applied
//	iupdater_replica_leader_version        gauge     {site}       newest version the leader advertised
//	iupdater_replica_lag_versions          gauge     {site}       replication lag in versions
//	iupdater_replica_reconnects_total      counter   {site}       failed leader polls
//	iupdater_replica_rebootstraps_total    counter   {site}       restarts from a full record
//	iupdater_update_duration_seconds       histogram {site,stage} update pipeline stage latency
//	                                                             (sample/reconstruct/persist/swap)
//	iupdater_publish_total                 counter   {site}       snapshot publishes (update/install/rollback)
//	iupdater_traces_started_total          counter   {}           traces started across the fleet
//	iupdater_traces_retained_total         counter   {}           traces retained (sampled/slow/forced)
//	iupdater_traces_slow_total             counter   {}           traces retained for crossing a slow threshold
//	iupdater_build_info                    gauge     {version,goversion} constant 1
//	iupdater_goroutines                    gauge     {}           live goroutines (runtime/metrics)
//	iupdater_heap_bytes                    gauge     {}           live heap object bytes
//	iupdater_gc_pause_seconds_total        counter   {}           cumulative stop-the-world GC pause
//
// The search counters reset whenever a new snapshot version publishes
// (each version carries a fresh index) — an ordinary Prometheus counter
// reset. Families a site has no data for (drift on an unmonitored site,
// replication on a writer) simply carry no sample for that site. A
// parked site keeps its locate, update-stage, publish and store series;
// its search and drift families have no sample until it rehydrates.
//
// The monitor attributes its residual per link: Observe decomposes each
// measurement's distance to the nearest fingerprint column into
// per-link absolute errors and folds them into an exponentially
// weighted moving average (drift.Attribution), so the top-k offending
// links — the links whose RSS has moved furthest from the database,
// i.e. where the environment changed — are ranked in MonitorStats
// .TopLinks, GET /drift's top_links, and the link-labeled gauge above.
// The EWMA resets on every published snapshot, since a fresh database
// redefines what "offending" means. k is 3, capped at the link count;
// Monitor.TopLinksInto is the allocation-free accessor.
//
// Updates are rate-limited by a cooldown, and by default the cooldown
// adapts to how bad the drift is: after each triggered update the next
// cooldown is ceiling/(1 + sensitivity*excess), floor-clamped, where
// excess is how many calibrated baseline standard deviations the
// current residual sits above the detector's mean. Mild drift keeps
// updates ceiling-spaced (1000 queries, the old fixed default); violent
// drift shortens the window toward the floor (100) so the next refresh
// lands sooner — without ever touching the detection path itself, so
// stationary traffic triggers exactly as few updates as before.
// WithAdaptiveCooldown(floor, ceiling, sensitivity) tunes the policy;
// WithUpdateCooldown(n) restores the fixed-width window.
//
// # Tracing — request-scoped spans across locate, update and replication
//
// The internal/trace package is a zero-dependency span tracer built for
// the same hot paths as internal/obs: a Tracer hands out per-request
// Trace values whose span tree records into sync.Pool-backed scratch,
// and the retain-or-drop decision is deferred to Finish — so a request
// that is not retained costs no allocation at all (gated by
// BenchmarkLocateTraced/unsampled in scripts/bench.sh and the
// tracing-enabled run of TestInstrumentedHotPathsAllocFree). A trace is
// retained when any of three policies fires: it was forced (Force, or a
// sampled upstream traceparent), head sampling kept it (1 in
// HeadEvery), or its duration crossed the per-path slow threshold
// (SlowThreshold/DefaultSlow; a negative threshold opts a path out, how
// the long-poll routes avoid flooding the slow ring). Retained traces
// are copied once into immutable TraceData and published to two
// lock-free rings — recent and slow — that scrapes read without
// touching writers.
//
// WithTracer attaches a tracer to a Deployment (and Monitor), WithReplicaTracer
// to a follower. Three pipelines are instrumented end to end:
//
//   - locate: a root span per query with version/tier attrs and an
//     omp.solve child carrying column_evals/shard_evals/shards_visited/
//     rounds from the index's per-query search stats, recorded by
//     Snapshot.LocateTraced — the one place the span is made, whether
//     the query comes through Deployment.Locate, Replica.Locate or a
//     serve-mode request trace;
//   - update: detect (spanning the hysteresis window on auto-updates) →
//     sample → reconstruct → snapshot.build → persist (record kind) →
//     swap; MonitorStats.LastUpdateTraceID and GET /drift's
//     last_update_trace name the trace of the newest auto-update;
//   - replication: the follower's replica.poll trace (longpoll →
//     validate → apply per frame) is forced whenever frames arrive and
//     records the leader's publish trace ID — propagated in the
//     Iupdater-Trace-Id header on /records — as a leader_trace_id attr,
//     linking a follower apply back to the exact leader update that
//     produced it.
//
// The iupdater_update_duration_seconds stage histograms are fed the
// identical measured durations as the update spans (one time.Since
// feeds both), so metrics and traces never disagree about a stage.
//
// In serve mode every route runs under a trace (path http.<route>),
// W3C traceparent is accepted on requests (a sampled flag forces
// retention) and emitted on responses alongside Iupdater-Trace-Id, and
// GET /traces / GET /traces/{id} expose the rings and full span trees
// as JSON. -trace-head sets the head-sampling rate (default 1 in 100;
// 0 disables), and -access-log enables a structured access log whose
// every line carries the request's trace ID.
//
// # Query-path performance — the snapshot-time locate index
//
// Every Snapshot carries a precomputed locate index (internal/loc's
// Index type), built once on the serialized publish path and published
// behind the same atomic pointer as the fingerprints, so queries read
// it lock-free and never pay index construction. The index stores three
// views of the M x N matrix — raw columns (nearest-column matching),
// mean-centered columns (the drift residual), and centered
// unit-norm columns (OMP correlation) — each with per-column norms and
// per-shard centroid/radius summaries over contiguous strip-aligned
// column blocks.
//
// Two search tiers share that layout:
//
//   - The default pruned tier returns bit-identical results to an
//     exhaustive scan (including tie-breaks: lowest column index wins),
//     but skips candidates using triangle-inequality bounds on the
//     shard summaries and per-column norms — a shard whose best-case
//     distance cannot beat the current best is never entered, a column
//     whose norm bound cannot win is never evaluated. Exactness is a
//     contract, not a heuristic: a property test drives random
//     geometries through both paths and demands identical indices and
//     float-identical values.
//   - WithExactSearch forces the exhaustive reference scan — the
//     bit-exact baseline the pruned tier is tested against, useful for
//     audits and A/B comparison (Snapshot.SearchStats counts column and
//     shard evaluations per tier).
//
// Both tiers return the true nearest column, so the drift residual
// (Monitor.Observe), which the detector's self-calibrated floor is
// learned from, is exact under either. Replication carries the
// configuration per end: a follower builds its own index from the
// replicated bits (WithReplicaExactSearch), and follower Locate is
// bit-identical to the leader's at the same version.
//
// All query entry points — Locate, LocateCell and Observe's residual —
// run allocation-free in steady state on a sync.Pool-backed per-query
// scratch, enforced by testing.AllocsPerRun tests and the benchmark
// budget gate (BenchmarkLocateLargeGrid in scripts/bench.sh).
//
// # Update-path performance
//
// The reconstruction solver is built on an allocation-free kernel layer
// (internal/mat's destination-passing *Into kernels and reusable
// Cholesky/LU factorizations) and a per-call buffer Workspace, so one
// Update performs a few hundred allocations end to end — independent of
// iteration count — and a deployment can refresh continuously under
// live localization traffic without GC pressure. The allocation budget
// is regression-tested by the benchmark smoke step in CI
// (scripts/bench.sh gates allocs/op against per-benchmark budgets).
//
// The ALS sweeps of the solver can additionally be sharded over a
// bounded worker pool with WithUpdateConcurrency: the per-row/column
// solves of one sweep are independent, results are deterministic for
// every worker count, and without Constraint-2 couplings the parallel
// sweep is bit-identical to the sequential one (under the default
// Gauss-Seidel variant it reads the couplings from a pre-sweep
// snapshot; see core.WithConcurrency). The default remains sequential,
// the bit-exact reference.
//
// A minimal session:
//
//	tb := iupdater.NewTestbed(iupdater.Office(), 1)
//	dep, _, _ := tb.Deploy(0, 50)
//	refs, _ := dep.ReferenceLocations()
//	// ... 45 days later, refresh from 8 reference columns ...
//	t45 := 45 * 24 * time.Hour
//	cols, _ := tb.ReferenceMatrix(t45, refs)
//	snap, _ := dep.Update(tb.NoDecreaseMatrix(t45), tb.Mask(), cols)
//	fmt.Println("serving fingerprint database v", snap.Version())
//	pos, _ := dep.Locate(tb.MeasureOnline(6.0, 4.5, t45))
package iupdater
