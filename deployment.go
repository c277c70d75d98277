package iupdater

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"iupdater/internal/core"
	"iupdater/internal/fingerprint"
	"iupdater/internal/geom"
	"iupdater/internal/loc"
	"iupdater/internal/obs"
	"iupdater/internal/trace"
)

// Geometry describes the deployment layout needed to turn fingerprint
// column indices into positions: the area dimensions and the strip-major
// grid shape.
type Geometry struct {
	// WidthM is the extent along the links (TX->RX), meters.
	WidthM float64
	// HeightM is the extent across the links, meters.
	HeightM float64
	// Links is the number of parallel links M.
	Links int
	// PerStrip is the number of grid cells along each link K (N = M*K).
	PerStrip int
}

func (g Geometry) grid() geom.Grid {
	return geom.NewGrid(g.WidthM, g.HeightM, g.Links, g.PerStrip)
}

// NumCells returns the number of grid locations N = Links * PerStrip.
func (g Geometry) NumCells() int { return g.Links * g.PerStrip }

// Position is a point estimate in meters.
type Position struct {
	X, Y float64
}

// Option configures a Deployment.
type Option func(*config)

type config struct {
	numRefs    int
	paperInit  bool
	noC1       bool
	noC2       bool
	workers    int
	updateConc int
	store      *Store
	search     loc.IndexConfig
	tracer     *trace.Tracer
	site       string
}

// WithReferenceCount overrides the number of reference locations (default:
// the number of links, the paper's minimal choice).
func WithReferenceCount(n int) Option {
	return func(c *config) { c.numRefs = n }
}

// WithPaperInitialization switches the solver to Algorithm 1's random
// initialization instead of the default truncated-SVD warm start.
func WithPaperInitialization() Option {
	return func(c *config) { c.paperInit = true }
}

// WithoutReferenceConstraint disables Constraint 1 (for ablation).
func WithoutReferenceConstraint() Option {
	return func(c *config) { c.noC1 = true }
}

// WithoutStabilityConstraint disables Constraint 2 (for ablation).
func WithoutStabilityConstraint() Option {
	return func(c *config) { c.noC2 = true }
}

// WithWorkers bounds the worker pool used by LocateBatch (default:
// GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithUpdateConcurrency shards the reconstruction solver's ALS sweeps
// over n workers during Update (n <= 0 selects GOMAXPROCS; the default
// 1 runs the bit-exact sequential sweeps). The parallel sweep is
// deterministic for every worker count; see core.WithConcurrency for
// the coupling semantics.
func WithUpdateConcurrency(n int) Option {
	// 0 means "unset" in config, so normalize the documented
	// GOMAXPROCS request (n <= 0) to -1.
	if n <= 0 {
		n = -1
	}
	return func(c *config) { c.updateConc = n }
}

// WithExactSearch forces every snapshot's locate index to the bit-exact
// exhaustive reference scan: no shard routing, no candidate pruning,
// every fingerprint column evaluated per query. The default (pruned)
// search already returns bit-identical results — including tie-breaks —
// while touching fewer columns, so this option exists for A/B
// verification and as the ground truth the pruned tier is tested
// against, not because the default trades accuracy.
func WithExactSearch() Option {
	return func(c *config) { c.search.Mode = loc.SearchExact }
}

// WithTracer attaches a request-scoped span tracer (see internal/trace)
// under the given site label: Locate records a per-query trace with the
// exact search cost of that query, and every Update/Install/Rollback
// publish records its pipeline stages (reconstruct, snapshot build,
// persist, swap). Sampling is the tracer's policy — the unsampled
// hot-path cost is pooled scratch recording only, with zero
// allocations. A nil tracer is the same as not using this option.
func WithTracer(t *trace.Tracer, site string) Option {
	return func(c *config) {
		c.tracer = t
		c.site = site
	}
}

// WithStore attaches a durable snapshot store: every published snapshot
// (the initial database, each Update/Install/auto-update, rollbacks) is
// written and fsynced to the store before it becomes visible to queries,
// so a process restart warm-starts from the latest version with
// OpenDeployment instead of re-surveying. Persistence happens on the
// serialized write path; the lock-free query path never touches disk.
// Each publish is persisted as a full snapshot record (see Store); a
// store written by an earlier version may also hold delta records,
// which warm starts and rollbacks still read.
//
// If the store already holds snapshots (e.g. from a previous deployment
// life), version numbering continues after the stored history instead of
// restarting at 1. A Store must be attached to at most one live
// Deployment at a time.
func WithStore(st *Store) Option {
	return func(c *config) { c.store = st }
}

// Snapshot is one immutable published version of the fingerprint
// database, with the localizer built for it at publish time. Queries that
// need a consistent view across several calls pin a snapshot once and
// query it directly; the Deployment's own query methods always use the
// latest snapshot.
type Snapshot struct {
	version uint64
	fp      Matrix
	ix      *loc.Index
	omp     *loc.OMPPoint
	grid    geom.Grid
}

// newSnapshot builds the snapshot's locate index once, on the write
// path, and shares it between the OMP localizer and (via the monitor)
// the drift residualizer. The index reads the matrix's column-major
// storage directly, so no intermediate dense copy is made.
func newSnapshot(version uint64, fp Matrix, grid geom.Grid, search loc.IndexConfig) *Snapshot {
	ix := loc.NewIndexCols(fp.rows, fp.cols, func(j int, dst []float64) {
		copy(dst, fp.ColView(j))
	}, grid.PerStrip, search)
	return &Snapshot{
		version: version,
		fp:      fp,
		ix:      ix,
		omp:     loc.NewOMPPointIndex(ix, grid, loc.OMPConfig{}),
		grid:    grid,
	}
}

// SearchStats are cumulative counters of the candidate-search work a
// snapshot's locate index has performed, for observability and
// benchmarking. ColumnEvals counts full column distance/correlation
// evaluations — the exhaustive reference costs one per fingerprint
// column per search, the pruned tier fewer.
type SearchStats struct {
	// Queries is the number of candidate searches answered.
	Queries uint64
	// ColumnEvals is the number of full column evaluations performed.
	ColumnEvals uint64
	// ShardEvals is the number of coarse shard-routing evaluations
	// performed.
	ShardEvals uint64
}

// SearchStats returns the snapshot's cumulative locate-index counters.
// Safe for concurrent use.
func (s *Snapshot) SearchStats() SearchStats {
	st := s.ix.Stats()
	return SearchStats{Queries: st.Queries, ColumnEvals: st.ColumnEvals, ShardEvals: st.ShardEvals}
}

// SearchTier names the snapshot's active candidate-search tier:
// "pruned" (the default) or "exact" (WithExactSearch).
func (s *Snapshot) SearchTier() string { return s.ix.Mode().String() }

// Version returns the snapshot's monotonically increasing version number.
// The initial database installed by NewDeployment is version 1.
func (s *Snapshot) Version() uint64 { return s.version }

// Fingerprints returns a copy of the snapshot's fingerprint matrix.
func (s *Snapshot) Fingerprints() Matrix { return s.fp.Clone() }

// The plausible range of one RSS reading, in dBm. Every locate entry
// point and Monitor.Observe reject a measurement holding a reading
// outside it, or a NaN, with a *ReadingError before any search or drift
// work: the residual squares each reading, so anything above ~1e154
// overflows to +Inf.
const (
	MinReadingDBm = -200
	MaxReadingDBm = 50
)

// ReadingError reports a reading that is NaN or outside
// [MinReadingDBm, MaxReadingDBm].
type ReadingError struct {
	// Link is the reading's position in the measurement.
	Link  int
	Value float64
}

func (e *ReadingError) Error() string {
	return fmt.Sprintf("reading %g on link %d is outside the plausible range [%d, %d] dBm",
		e.Value, e.Link, MinReadingDBm, MaxReadingDBm)
}

// checkReadings returns a *ReadingError for the first implausible
// reading of rss, nil when every reading is plausible.
func checkReadings(rss []float64) error {
	for i, v := range rss {
		if !(v >= MinReadingDBm && v <= MaxReadingDBm) { // NaN fails both
			return &ReadingError{Link: i, Value: v}
		}
	}
	return nil
}

// Locate estimates the target position for one online RSS vector (one
// averaged reading per link).
func (s *Snapshot) Locate(rss []float64) (Position, error) {
	if err := checkReadings(rss); err != nil {
		return Position{}, fmt.Errorf("iupdater: %w", err)
	}
	p, err := s.omp.LocatePoint(rss)
	if err != nil {
		return Position{}, fmt.Errorf("iupdater: %w", err)
	}
	return Position{X: p.X, Y: p.Y}, nil
}

// LocateStats describes the candidate-search work one Locate call
// performed, causally — unlike SearchStats, which aggregates across
// all concurrent queries. Request-scoped traces attach these as span
// attributes.
type LocateStats struct {
	// Version is the snapshot version the query ran against.
	Version uint64
	// Tier is the active search tier ("pruned" or "exact").
	Tier string
	// ColumnEvals / ShardEvals / ShardsVisited / Rounds are this
	// query's exact counts; see loc.SearchInfo.
	ColumnEvals   uint64
	ShardEvals    uint64
	ShardsVisited int
	Rounds        int
}

// LocateWithStats is Locate returning this query's exact search cost.
// It allocates nothing beyond Locate itself.
func (s *Snapshot) LocateWithStats(rss []float64) (Position, LocateStats, error) {
	st := LocateStats{Version: s.version, Tier: s.ix.Mode().String()}
	if err := checkReadings(rss); err != nil {
		return Position{}, st, fmt.Errorf("iupdater: %w", err)
	}
	var info loc.SearchInfo
	p, err := s.omp.LocatePointInfo(rss, &info)
	st.ColumnEvals, st.ShardEvals = info.ColumnEvals, info.ShardEvals
	st.ShardsVisited, st.Rounds = info.ShardsVisited, info.Rounds
	if err != nil {
		return Position{}, st, fmt.Errorf("iupdater: %w", err)
	}
	return Position{X: p.X, Y: p.Y}, st, nil
}

// LocateTraced is Locate recording the query as an "omp.solve" child
// span of tr, carrying its exact search cost (tier, column and shard
// evaluations, shards visited, pursuit rounds) — the query-side
// counterpart of Deployment.UpdateTraced. The caller owns tr (serve-mode
// handlers pass their request trace); a nil tr is plain Locate.
func (s *Snapshot) LocateTraced(tr *trace.Trace, rss []float64) (Position, error) {
	if tr == nil {
		return s.Locate(rss)
	}
	sp := tr.StartSpan("omp.solve")
	p, st, err := s.LocateWithStats(rss)
	sp.SetStr("tier", st.Tier)
	sp.SetInt("column_evals", int64(st.ColumnEvals))
	sp.SetInt("shard_evals", int64(st.ShardEvals))
	sp.SetInt("shards_visited", int64(st.ShardsVisited))
	sp.SetInt("rounds", int64(st.Rounds))
	sp.End()
	return p, err
}

// LocateCell estimates the strip-major grid cell index for one online
// RSS vector.
func (s *Snapshot) LocateCell(rss []float64) (int, error) {
	if err := checkReadings(rss); err != nil {
		return 0, fmt.Errorf("iupdater: %w", err)
	}
	cell, err := s.omp.Locate(rss)
	if err != nil {
		return 0, fmt.Errorf("iupdater: %w", err)
	}
	return cell, nil
}

// LocateMultiple estimates up to maxTargets simultaneous device-free
// targets from one online measurement by successive interference
// cancellation (an extension beyond the paper's single-target
// formulation). Fewer estimates are returned when the measurement does
// not support more.
func (s *Snapshot) LocateMultiple(rss []float64, maxTargets int) ([]Position, error) {
	if err := checkReadings(rss); err != nil {
		return nil, fmt.Errorf("iupdater: %w", err)
	}
	pts, err := s.omp.LocateMultiple(rss, maxTargets, 0)
	if err != nil {
		return nil, fmt.Errorf("iupdater: %w", err)
	}
	out := make([]Position, len(pts))
	for i, p := range pts {
		out[i] = Position{X: p.X, Y: p.Y}
	}
	return out, nil
}

// LocateBatch localizes every measurement against this snapshot, fanned
// out over a bounded worker pool. Results are in input order.
func (s *Snapshot) LocateBatch(ctx context.Context, rss [][]float64, workers int) ([]Position, error) {
	for i, m := range rss {
		if err := checkReadings(m); err != nil {
			return nil, fmt.Errorf("iupdater: measurement %d: %w", i, err)
		}
	}
	pts, err := loc.LocatePoints(ctx, s.omp, rss, workers)
	if err != nil {
		return nil, fmt.Errorf("iupdater: %w", err)
	}
	out := make([]Position, len(pts))
	for i, p := range pts {
		out[i] = Position{X: p.X, Y: p.Y}
	}
	return out, nil
}

// serving is the read path a Deployment and a Replica share: the atomic
// pointer to the latest published snapshot, the locate-latency
// histogram, and the tracer and site label locate traces are recorded
// under. Both types embed it, so its methods are their only
// Snapshot/Version/Locate/LocateCell/LocateLatency implementation.
type serving struct {
	snap   atomic.Pointer[Snapshot]
	lat    *obs.Histogram
	tracer *trace.Tracer
	site   string
}

// errNoSnapshot is what a read returns before the first snapshot, which
// only a replica that has not applied its first record can hit.
var errNoSnapshot = errors.New("iupdater: replica has not applied a snapshot yet")

// Snapshot returns the latest published snapshot — for a Replica, nil
// until the first record has been applied. The load is a single atomic
// pointer read.
func (s *serving) Snapshot() *Snapshot { return s.snap.Load() }

// Version returns the latest published snapshot version (0 on a Replica
// before the first record).
func (s *serving) Version() uint64 {
	if snap := s.snap.Load(); snap != nil {
		return snap.version
	}
	return 0
}

// LocateLatency returns the cumulative locate-latency histogram
// (seconds): every Locate, LocateCell or (on a Deployment)
// LocateMultiple call is one observation, a LocateBatch call one per
// batch. Safe for concurrent use; the serve layer exposes it on
// /metrics.
func (s *serving) LocateLatency() *obs.Histogram { return s.lat }

// Locate estimates the target position for one online RSS vector against
// the latest snapshot. With a tracer attached (WithTracer,
// WithReplicaTracer) each call records a "locate" trace carrying this
// query's exact search cost; unsampled traces cost pooled scratch only —
// the call stays allocation-free.
func (s *serving) Locate(rss []float64) (Position, error) {
	snap := s.snap.Load()
	if snap == nil {
		return Position{}, errNoSnapshot
	}
	tr := s.tracer.Start("locate", s.site)
	start := time.Now()
	p, err := snap.LocateTraced(tr, rss)
	el := time.Since(start)
	s.lat.Observe(el.Seconds())
	root := tr.Root()
	root.SetInt("version", int64(snap.version))
	root.SetBool("error", err != nil)
	root.EndDur(el)
	tr.Finish()
	return p, err
}

// LocateCell estimates the strip-major grid cell index against the
// latest snapshot.
func (s *serving) LocateCell(rss []float64) (int, error) {
	snap := s.snap.Load()
	if snap == nil {
		return 0, errNoSnapshot
	}
	start := time.Now()
	cell, err := snap.LocateCell(rss)
	s.lat.Observe(time.Since(start).Seconds())
	return cell, err
}

// Deployment is a long-lived fingerprint-localization service for one
// physical deployment. It owns a versioned fingerprint store: every
// Update, Install or initial construction publishes an immutable Snapshot
// swapped in behind an atomic pointer, so localization traffic reads
// lock-free and is never blocked by — and never observes a torn state
// from — a concurrent database refresh.
//
// All methods are safe for concurrent use. The write path (Update,
// Install, Refresh) is serialized internally; the query path (Locate,
// LocateCell, LocateMultiple, LocateBatch, Snapshot) never takes the
// write lock.
//
// Construct with NewDeployment; the zero value is not usable.
type Deployment struct {
	serving

	geo    Geometry
	grid   geom.Grid
	cfg    config
	meters *meters

	// pubMu guards pubTraces, the bounded version -> publish-trace-ID
	// map that lets /records hand followers the trace that produced the
	// record they are applying.
	pubMu     sync.Mutex
	pubTraces map[uint64]trace.ID

	// mu serializes the write path and guards updater, which holds the
	// reference locations and correlation matrix of the latest Refresh.
	mu      sync.Mutex
	updater *core.Updater

	subMu  sync.Mutex
	subs   map[uint64]chan *Snapshot
	nextID uint64
}

// Update-pipeline stage labels, in pipeline order: reference-point
// measurement, ALS reconstruction, store append+fsync, atomic snapshot
// swap. They are the `stage` label values of the
// iupdater_update_duration_seconds histogram and the span names of the
// corresponding trace spans.
const (
	StageSample      = "sample"
	StageReconstruct = "reconstruct"
	StagePersist     = "persist"
	StageSwap        = "swap"
)

// UpdateStages returns the update-pipeline stage labels in order.
func UpdateStages() []string {
	return []string{StageSample, StageReconstruct, StagePersist, StageSwap}
}

// meters are a writer's cumulative instruments, behind one pointer so a
// fleet site hands the same meters to every Deployment it
// re-materializes after parking: locate latency, update-stage latency
// and the publish count survive parking instead of resetting, and so
// does the monitor state in parked.
type meters struct {
	// lat is the locate-latency histogram (seconds) across every query
	// path and snapshot version; the serve layer exposes it on /metrics.
	lat *obs.Histogram
	// updLat holds the per-stage update-pipeline latency histograms
	// (StageSample..StageSwap). The observations are the very same
	// durations recorded on the stage spans, so /metrics and /traces
	// cannot disagree about where update time went.
	updLat map[string]*obs.Histogram
	// publishes counts published snapshots (the initial install is not a
	// publish).
	publishes obs.Counter
	// parked is the state of the monitor a fleet site released when it
	// last parked: counters, calibrated floor and the snapshot version of
	// the floor. A monitor built on a deployment sharing these meters
	// resumes from it instead of reading the store's state blob. nil
	// until the site first parks a monitor.
	parked atomic.Pointer[monitorState]
}

func newMeters() *meters {
	m := &meters{
		lat:    obs.NewHistogram(obs.DefLatencyBuckets...),
		updLat: make(map[string]*obs.Histogram, 4),
	}
	for _, st := range UpdateStages() {
		m.updLat[st] = obs.NewHistogram(obs.DefLatencyBuckets...)
	}
	return m
}

// UpdateStageLatency returns the latency histogram (seconds) for one
// update-pipeline stage (StageSample, StageReconstruct, StagePersist
// or StageSwap); nil for unknown stages. Safe for concurrent use.
func (d *Deployment) UpdateStageLatency(stage string) *obs.Histogram { return d.meters.updLat[stage] }

// Publishes returns how many snapshots this deployment has published
// (Update/Install/Rollback/auto-update; the initial database does not
// count).
func (d *Deployment) Publishes() uint64 { return d.meters.publishes.Value() }

// PublishTraceID returns the trace ID of the publish that produced the
// given snapshot version, when that publish was traced and the version
// is recent (a bounded window of recent publishes is remembered).
func (d *Deployment) PublishTraceID(version uint64) (trace.ID, bool) {
	d.pubMu.Lock()
	defer d.pubMu.Unlock()
	id, ok := d.pubTraces[version]
	return id, ok
}

// publishTraceWindow bounds the version -> publish-trace-ID memory.
const publishTraceWindow = 64

func (d *Deployment) recordPublishTrace(version uint64, id trace.ID) {
	d.pubMu.Lock()
	if d.pubTraces == nil {
		d.pubTraces = make(map[uint64]trace.ID, publishTraceWindow)
	}
	d.pubTraces[version] = id
	if version > publishTraceWindow {
		delete(d.pubTraces, version-publishTraceWindow)
	}
	d.pubMu.Unlock()
}

// NewDeployment validates the initial fingerprint database against the
// deployment geometry once, builds the localizer for it, and publishes it
// as snapshot version 1. The update machinery (reference selection and
// correlation acquisition) is initialized lazily on first use, so
// query-only deployments pay nothing for it.
func NewDeployment(fingerprints Matrix, g Geometry, opts ...Option) (*Deployment, error) {
	cfg := applyOptions(opts)
	if err := checkDatabase(fingerprints, g); err != nil {
		return nil, err
	}
	// A store that already holds history (a previous deployment life,
	// e.g. before a fresh full survey) keeps the version line monotonic:
	// the new initial snapshot continues after the stored versions.
	version := uint64(1)
	if cfg.store != nil {
		version = cfg.store.LatestVersion() + 1
	}
	snap := newSnapshot(version, fingerprints.Clone(), g.grid(), cfg.search)
	if cfg.store != nil {
		if err := cfg.store.appendSnapshot(snap.version, g, snap.fp); err != nil {
			return nil, err
		}
	}
	return newDeployment(g, cfg, snap, newMeters()), nil
}

// newDeploymentAt constructs a writer that continues an existing
// version line: the initial snapshot is published in memory at exactly
// version (not 1), so the next publish becomes version+1. Replica
// promotion uses it to take over a leader's line without a gap.
//
// An attached store that is behind the takeover version is seeded with
// a full snapshot at that version — the handover itself is durable
// before the deployment becomes visible. A store already holding
// versions beyond the takeover point is refused: it records a longer
// history than the one being continued, and appending under it would
// fork the line.
func newDeploymentAt(fingerprints Matrix, g Geometry, version uint64, opts ...Option) (*Deployment, error) {
	if version == 0 {
		return nil, fmt.Errorf("iupdater: cannot continue a version line at version 0")
	}
	cfg := applyOptions(opts)
	if err := checkDatabase(fingerprints, g); err != nil {
		return nil, err
	}
	snap := newSnapshot(version, fingerprints.Clone(), g.grid(), cfg.search)
	if cfg.store != nil {
		if last := cfg.store.LatestVersion(); last > version {
			return nil, fmt.Errorf("iupdater: store already holds version %d, beyond the takeover version %d", last, version)
		} else if last < version {
			if err := cfg.store.appendSnapshot(snap.version, g, snap.fp); err != nil {
				return nil, err
			}
		}
	}
	return newDeployment(g, cfg, snap, newMeters()), nil
}

// OpenDeployment warm-starts a Deployment from the latest snapshot in a
// durable store: the fingerprint database, geometry and version number
// are restored exactly as last published, so a restarted process serves
// bit-identical localization without a re-survey. The store stays
// attached — subsequent publishes keep appending to it. Options are
// applied as in NewDeployment (a WithStore option is unnecessary and
// ignored in favor of st).
func OpenDeployment(st *Store, opts ...Option) (*Deployment, error) {
	return openDeploymentCfg(st, applyOptions(opts), newMeters())
}

// openDeploymentCfg is OpenDeployment with the option set already
// resolved into a config value. The fleet's snapshot LRU rehydrates
// parked sites through it with the exact config their deployment was
// built with, so a re-materialized site serves under identical search
// tiers, workers and tracer wiring, and with the site's meters, so its
// counters continue where the parked deployment left them.
func openDeploymentCfg(st *Store, cfg config, m *meters) (*Deployment, error) {
	if st == nil {
		return nil, fmt.Errorf("iupdater: OpenDeployment: nil store")
	}
	version, fp, g, err := st.latestSnapshot()
	if err != nil {
		return nil, err
	}
	cfg.store = st
	if !g.valid() {
		return nil, fmt.Errorf("iupdater: stored geometry %+v is invalid", g)
	}
	// fp was decoded into fresh storage, so no defensive clone is needed.
	return newDeployment(g, cfg, newSnapshot(version, fp, g.grid(), cfg.search), m), nil
}

func applyOptions(opts []Option) config {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

func (g Geometry) valid() bool {
	return g.Links > 0 && g.PerStrip > 0 && g.WidthM > 0 && g.HeightM > 0
}

// checkDatabase validates a fingerprint database against the geometry
// it is to be served under.
func checkDatabase(fp Matrix, g Geometry) error {
	if !g.valid() {
		return fmt.Errorf("iupdater: invalid geometry %+v", g)
	}
	if fp.IsZero() {
		return fmt.Errorf("iupdater: empty fingerprint matrix")
	}
	if r, c := fp.Dims(); r != g.Links || c != g.NumCells() {
		return fmt.Errorf("iupdater: matrix is %dx%d, want %dx%d", r, c, g.Links, g.NumCells())
	}
	return nil
}

// newDeployment assembles a writer serving snap, its initial snapshot.
func newDeployment(g Geometry, cfg config, snap *Snapshot, m *meters) *Deployment {
	d := &Deployment{
		serving: serving{lat: m.lat, tracer: cfg.tracer, site: cfg.site},
		geo:     g,
		grid:    snap.grid,
		cfg:     cfg,
		meters:  m,
		subs:    make(map[uint64]chan *Snapshot),
	}
	d.snap.Store(snap)
	return d
}

// Store returns the attached durable snapshot store, nil for an
// in-memory deployment.
func (d *Deployment) Store() *Store { return d.cfg.store }

// Geometry returns the deployment layout.
func (d *Deployment) Geometry() Geometry { return d.geo }

// CellCenter returns the position of a grid cell's center in meters.
func (d *Deployment) CellCenter(cell int) Position {
	p := d.grid.Center(cell)
	return Position{X: p.X, Y: p.Y}
}

// buildUpdater runs reference selection and correlation acquisition on
// the given database. It touches no deployment state, so callers can
// swap the result in only on success.
func (d *Deployment) buildUpdater(fp Matrix) (*core.Updater, error) {
	ucfg := core.DefaultUpdaterConfig()
	ucfg.NumReferences = d.cfg.numRefs
	if d.cfg.paperInit {
		ucfg.Reconstruction = []core.Option{core.WithWarmStart(false)}
	}
	if d.cfg.noC1 {
		ucfg.Reconstruction = append(ucfg.Reconstruction, core.WithConstraint1(false))
	}
	if d.cfg.noC2 {
		ucfg.Reconstruction = append(ucfg.Reconstruction, core.WithConstraint2(false))
	}
	if d.cfg.updateConc != 0 {
		ucfg.Reconstruction = append(ucfg.Reconstruction, core.WithConcurrency(d.cfg.updateConc))
	}
	up, err := core.NewUpdater(fingerprint.New(fp.dense(), 0), ucfg)
	if err != nil {
		return nil, fmt.Errorf("iupdater: %w", err)
	}
	return up, nil
}

// ensureUpdaterLocked builds the core updater from the current snapshot
// if it has not been built yet. d.mu must be held.
func (d *Deployment) ensureUpdaterLocked() error {
	if d.updater != nil {
		return nil
	}
	up, err := d.buildUpdater(d.snap.Load().fp)
	if err != nil {
		return err
	}
	d.updater = up
	return nil
}

// ReferenceLocations returns the location indices (ascending) where fresh
// full-column measurements must be taken for the next Update — the
// maximum independent columns of the database the correlation matrix was
// last learned on.
func (d *Deployment) ReferenceLocations() ([]int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.ensureUpdaterLocked(); err != nil {
		return nil, err
	}
	return d.updater.ReferenceLocations(), nil
}

// Update reconstructs the full fingerprint database from cheap
// measurements and publishes it as a new snapshot:
//
//   - noDecrease: the zero-labor measurements; noDecrease.At(i, j) is link
//     i's fresh target-free reading where known.Known(i, j), ignored
//     elsewhere;
//   - known: the no-decrease index (true = measurable without target);
//   - references: fresh measurements at ReferenceLocations();
//     references.At(i, k) is link i's reading with the target at the k-th
//     reference location.
//
// Localization traffic keeps reading the previous snapshot until the new
// one is swapped in; the returned snapshot is the newly published
// version.
func (d *Deployment) Update(noDecrease Matrix, known Mask, references Matrix) (*Snapshot, error) {
	tr := d.cfg.tracer.Start("update", d.cfg.site)
	defer tr.Finish()
	return d.UpdateTraced(tr, noDecrease, known, references)
}

// UpdateTraced is Update recording its pipeline stages — ALS
// reconstruction, snapshot build/index, store append+fsync, atomic
// swap — as child spans of tr, which the caller owns (serve-mode
// request handlers pass their request trace; the drift monitor passes
// its forced auto-update trace). A nil tr records nothing. The stage
// durations observed into the update-stage histograms are the very
// same values recorded on the spans.
func (d *Deployment) UpdateTraced(tr *trace.Trace, noDecrease Matrix, known Mask, references Matrix) (*Snapshot, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.ensureUpdaterLocked(); err != nil {
		return nil, err
	}
	cells := d.grid.NumCells()
	if noDecrease.IsZero() {
		return nil, fmt.Errorf("iupdater: no-decrease matrix: empty matrix")
	}
	if r, c := noDecrease.Dims(); r != d.geo.Links || c != cells {
		return nil, fmt.Errorf("iupdater: no-decrease matrix is %dx%d, want %dx%d", r, c, d.geo.Links, cells)
	}
	if known.IsZero() {
		return nil, fmt.Errorf("iupdater: known mask: empty mask")
	}
	if r, c := known.Dims(); r != d.geo.Links || c != cells {
		return nil, fmt.Errorf("iupdater: known mask is %dx%d, want %dx%d", r, c, d.geo.Links, cells)
	}
	refs := d.updater.ReferenceLocations()
	if references.IsZero() {
		return nil, fmt.Errorf("iupdater: reference matrix: empty matrix")
	}
	if r, c := references.Dims(); r != d.geo.Links || c != len(refs) {
		return nil, fmt.Errorf("iupdater: reference matrix is %dx%d, want %dx%d", r, c, d.geo.Links, len(refs))
	}
	mask := known.fingerprintMask()
	// Zero out the unknown entries so B ∘ X̂ = X_B holds exactly.
	xb := mask.Project(noDecrease.dense())
	sp := tr.StartSpan(StageReconstruct)
	t0 := time.Now()
	updated, _, err := d.updater.Update(xb, mask, references.dense(), 0)
	el := time.Since(t0)
	sp.SetInt("links", int64(d.geo.Links))
	sp.SetInt("cells", int64(cells))
	sp.EndDur(el)
	d.meters.updLat[StageReconstruct].Observe(el.Seconds())
	if err != nil {
		return nil, fmt.Errorf("iupdater: %w", err)
	}
	return d.publishLocked(tr, matrixFromDense(updated.X))
}

// Install replaces the database wholesale (e.g. after a fresh full
// survey): it re-runs reference selection and correlation acquisition on
// the new matrix and, only if that succeeds, publishes it as a new
// snapshot. On error no deployment state changes — the previous snapshot
// keeps serving and the previous correlation state keeps updating.
func (d *Deployment) Install(fingerprints Matrix) (*Snapshot, error) {
	tr := d.cfg.tracer.Start("install", d.cfg.site)
	defer tr.Finish()
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := checkDatabase(fingerprints, d.geo); err != nil {
		return nil, err
	}
	fp := fingerprints.Clone()
	up, err := d.buildUpdater(fp)
	if err != nil {
		return nil, err
	}
	snap, err := d.publishLocked(tr, fp)
	if err != nil {
		return nil, err
	}
	d.updater = up
	return snap, nil
}

// Rollback republishes a previously stored snapshot version as the
// latest: the retained version's fingerprints are loaded from the
// attached store, reference selection and correlation acquisition are
// re-run on them (as in Install), and the result is published under the
// next version number — history stays append-only and versions stay
// monotonic, so a rollback is itself a recorded, durable event that a
// later Rollback can undo. Requires a store (WithStore/OpenDeployment);
// versions outside the retention window are an error.
func (d *Deployment) Rollback(version uint64) (*Snapshot, error) {
	tr := d.cfg.tracer.Start("rollback", d.cfg.site)
	defer tr.Finish()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cfg.store == nil {
		return nil, fmt.Errorf("iupdater: Rollback needs a durable store (attach one with WithStore or OpenDeployment)")
	}
	fp, g, err := d.cfg.store.SnapshotAt(version)
	if err != nil {
		return nil, err
	}
	if g != d.geo {
		return nil, fmt.Errorf("iupdater: snapshot v%d was published under geometry %+v, deployment has %+v", version, g, d.geo)
	}
	up, err := d.buildUpdater(fp)
	if err != nil {
		return nil, err
	}
	tr.Root().SetInt("rollback_to", int64(version))
	snap, err := d.publishLocked(tr, fp)
	if err != nil {
		return nil, err
	}
	d.updater = up
	return snap, nil
}

// Refresh re-runs reference selection and correlation acquisition on the
// latest published snapshot, so that subsequent updates track the current
// database state (Fig 10's feedback loop). It does not publish a new
// snapshot, and on error the previous correlation state is kept.
func (d *Deployment) Refresh() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	up, err := d.buildUpdater(d.snap.Load().fp)
	if err != nil {
		return err
	}
	d.updater = up
	return nil
}

// publishLocked stamps the next version, persists it as a full record
// (durability before visibility: a failed append publishes nothing;
// delta records that older stores hold are only ever read), swaps the
// snapshot in and notifies subscribers. d.mu must be held.
//
// The three publish stages — snapshot build/index, store append+fsync,
// atomic swap — are recorded as child spans of tr (nil records
// nothing); persist and swap also feed the update-stage histograms
// with the same durations. A traced publish's ID is remembered so
// /records can hand it to followers (see PublishTraceID).
func (d *Deployment) publishLocked(tr *trace.Trace, fp Matrix) (*Snapshot, error) {
	sp := tr.StartSpan("snapshot.build")
	t0 := time.Now()
	snap := newSnapshot(d.snap.Load().version+1, fp, d.grid, d.cfg.search)
	sp.SetInt("version", int64(snap.version))
	sp.End()
	if d.cfg.store != nil {
		sp = tr.StartSpan(StagePersist)
		t0 = time.Now()
		err := d.cfg.store.appendSnapshot(snap.version, d.geo, snap.fp)
		el := time.Since(t0)
		sp.SetStr("record_kind", "full")
		sp.EndDur(el)
		d.meters.updLat[StagePersist].Observe(el.Seconds())
		if err != nil {
			return nil, err
		}
	}
	sp = tr.StartSpan(StageSwap)
	t0 = time.Now()
	d.snap.Store(snap)
	d.subMu.Lock()
	n := len(d.subs)
	for _, ch := range d.subs {
		select {
		case ch <- snap:
		default: // slow subscriber: drop rather than stall the write path
		}
	}
	d.subMu.Unlock()
	el := time.Since(t0)
	sp.SetInt("subscribers", int64(n))
	sp.EndDur(el)
	d.meters.updLat[StageSwap].Observe(el.Seconds())
	d.meters.publishes.Inc()
	if tr != nil {
		d.recordPublishTrace(snap.version, tr.ID())
	}
	return snap, nil
}

// Updates returns a channel receiving every newly published snapshot
// (version rollovers from Update and Install), plus a cancel function
// that unsubscribes and closes the channel. Deliveries to a subscriber
// whose buffer is full are dropped; poll Snapshot for the authoritative
// latest version.
func (d *Deployment) Updates() (<-chan *Snapshot, func()) {
	ch := make(chan *Snapshot, 8)
	d.subMu.Lock()
	id := d.nextID
	d.nextID++
	d.subs[id] = ch
	d.subMu.Unlock()
	cancel := func() {
		d.subMu.Lock()
		if _, ok := d.subs[id]; ok {
			delete(d.subs, id)
			close(ch)
		}
		d.subMu.Unlock()
	}
	return ch, cancel
}

// LocateMultiple estimates up to maxTargets simultaneous targets against
// the latest snapshot.
func (d *Deployment) LocateMultiple(rss []float64, maxTargets int) ([]Position, error) {
	start := time.Now()
	pts, err := d.snap.Load().LocateMultiple(rss, maxTargets)
	d.lat.Observe(time.Since(start).Seconds())
	return pts, err
}

// LocateBatch localizes a batch of online measurements against one
// consistent snapshot (the latest at call time), fanned out over the
// deployment's worker pool (see WithWorkers). Results are in input order;
// the first error or a context cancellation aborts the remaining work.
func (d *Deployment) LocateBatch(ctx context.Context, rss [][]float64) ([]Position, error) {
	start := time.Now()
	pts, err := d.snap.Load().LocateBatch(ctx, rss, d.cfg.workers)
	d.lat.Observe(time.Since(start).Seconds())
	return pts, err
}
