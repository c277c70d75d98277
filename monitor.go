package iupdater

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"iupdater/internal/drift"
	"iupdater/internal/trace"
)

// DriftDetector is a streaming change detector over the staleness
// residual sequence, pluggable into a Monitor via WithDriftDetector.
// The built-in implementation (NewMeanShiftDetector) is
// self-calibrating: it learns the stationary residual floor from the
// first observations after construction or Reset. Implementations need not be safe for concurrent
// use; the Monitor serializes all calls.
//
// A detector may additionally implement
//
//	Baseline() (mu, sigma float64, ok bool)
//	SetBaseline(mu, sigma float64)
//
// (as the built-in does) to make its calibrated floor portable across
// process restarts: a Monitor attached to a Deployment with a durable
// Store persists the floor and re-installs it on the next start, so a
// restarted monitor resumes detection instead of re-running the
// calibration window.
type DriftDetector interface {
	// Observe consumes one residual (dB) and reports whether drift is
	// flagged at this observation.
	Observe(residual float64) bool
	// Score returns the current drift statistic normalized by the
	// detection threshold: ~0 at the calibrated floor, >= 1 while
	// flagging, 0 during calibration.
	Score() float64
	// Reset discards all state including the calibrated floor; the
	// detector re-calibrates on the observations that follow.
	Reset()
}

// NewMeanShiftDetector returns the default sliding-window mean-shift
// detector: drift is flagged when the mean of the last window residuals
// exceeds the calibrated floor by k floor-sigmas. baseline is the number
// of calibration observations, window the sliding-window length; zero or
// negative arguments select the defaults (200, 64, 1.5). It reacts within
// about one window to the abrupt persistent shifts an environment change
// produces.
func NewMeanShiftDetector(baseline, window int, k float64) DriftDetector {
	return drift.NewMeanShift(drift.MeanShiftConfig{Baseline: baseline, Window: window, K: k})
}

// UpdateInputs carries one set of fresh measurements for
// Deployment.Update: the zero-labor no-decrease matrix with its mask,
// and the reference-location columns.
type UpdateInputs struct {
	NoDecrease Matrix
	Known      Mask
	References Matrix
}

// ReferenceSampler collects the measurements an automatic update needs,
// given the reference locations the Deployment wants surveyed. The
// Testbed implements it for simulation (Testbed.Sampler); real
// deployments feed measured matrices through a MatrixSampler or a
// SamplerFunc bridging their radio frontend. SampleReferences is called
// from the Monitor's update goroutine (or inline under
// WithSynchronousUpdates), never concurrently with itself.
type ReferenceSampler interface {
	SampleReferences(refs []int) (UpdateInputs, error)
}

// SamplerFunc adapts a function to the ReferenceSampler interface.
type SamplerFunc func(refs []int) (UpdateInputs, error)

// SampleReferences implements ReferenceSampler.
func (f SamplerFunc) SampleReferences(refs []int) (UpdateInputs, error) { return f(refs) }

// MatrixSampler is a ReferenceSampler for real deployments: the caller
// pushes the latest raw measurement matrices with Store (e.g. whenever
// the radio frontend completes a no-decrease scan and a reference
// survey), and the Monitor picks them up when drift triggers an update.
// Safe for concurrent use. The zero value is ready; until the first
// Store, SampleReferences fails and the triggered update is recorded as
// an update error.
type MatrixSampler struct {
	mu sync.Mutex
	in UpdateInputs
	ok bool
}

// Store publishes the latest measured update inputs.
func (s *MatrixSampler) Store(in UpdateInputs) {
	s.mu.Lock()
	s.in, s.ok = in, true
	s.mu.Unlock()
}

// SampleReferences implements ReferenceSampler, returning the most
// recently stored measurements.
func (s *MatrixSampler) SampleReferences(refs []int) (UpdateInputs, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ok {
		return UpdateInputs{}, errors.New("iupdater: no measurements stored in MatrixSampler")
	}
	if c := s.in.References.Cols(); c != len(refs) {
		return UpdateInputs{}, fmt.Errorf("iupdater: stored reference matrix has %d columns, deployment wants %d", c, len(refs))
	}
	return s.in, nil
}

// MonitorOption configures a Monitor.
type MonitorOption func(*monitorConfig)

type monitorConfig struct {
	detector   DriftDetector
	hysteresis int
	cooldown   int
	adaptive   bool
	acFloor    int
	acCeil     int
	acSens     float64
	sync       bool
}

// WithDriftDetector replaces the default mean-shift detector. The
// Monitor takes ownership: the detector must not be observed elsewhere.
func WithDriftDetector(det DriftDetector) MonitorOption {
	return func(c *monitorConfig) { c.detector = det }
}

// WithDriftHysteresis sets how many consecutive flagged observations are
// required before a detection is declared (default 4): one-off residual
// spikes from interference bursts or a passer-by never trigger a survey.
func WithDriftHysteresis(n int) MonitorOption {
	return func(c *monitorConfig) { c.hysteresis = n }
}

// WithUpdateCooldown fixes the minimum number of observed queries
// between auto-triggered updates to a constant, disabling the default
// residual-driven adaptive cooldown (see WithAdaptiveCooldown).
// Detections during the cooldown are counted and suppressed,
// rate-limiting the reference surveys (each one costs real human labor)
// no matter how noisy the detector is.
func WithUpdateCooldown(queries int) MonitorOption {
	return func(c *monitorConfig) {
		c.cooldown = queries
		c.adaptive = false
	}
}

// Adaptive-cooldown defaults: the ceiling matches the historical fixed
// cooldown, the floor still spans several detector windows, and the
// sensitivity halves the cooldown four floor-sigmas above the
// calibrated residual floor.
const (
	defaultCooldownFloor   = 100
	defaultCooldownCeiling = 1000
	defaultCooldownSens    = 0.25
)

// WithAdaptiveCooldown tunes the residual-driven adaptive cooldown
// (the default policy): when an update triggers, the next cooldown is
//
//	ceiling / (1 + sensitivity * excess)
//
// clamped to [floor, ceiling], where excess is how many calibrated
// floor-sigmas the triggering residual sits above the detector's
// baseline mean. A mild drift keeps the full ceiling between surveys; a
// violent one (residual many sigmas out, localization actively
// degrading) shortens the wait toward the floor so a follow-up update
// is not blocked behind a rate limit sized for noise. Detectors without
// a calibrated baseline (see DriftDetector) always wait the ceiling.
// Non-positive arguments select the defaults (100, 1000, 0.25);
// WithUpdateCooldown switches back to the fixed policy.
func WithAdaptiveCooldown(floor, ceiling int, sensitivity float64) MonitorOption {
	return func(c *monitorConfig) {
		c.adaptive = true
		if floor > 0 {
			c.acFloor = floor
		}
		if ceiling > 0 {
			c.acCeil = ceiling
		}
		if sensitivity > 0 {
			c.acSens = sensitivity
		}
	}
}

// WithSynchronousUpdates makes a triggered update run inline in the
// Observe call that detected the drift, instead of on a background
// goroutine. Evaluation and tests use it for deterministic
// query-counted schedules; production monitors should keep the default
// asynchronous mode so localization traffic is never blocked behind a
// reconstruction.
func WithSynchronousUpdates() MonitorOption {
	return func(c *monitorConfig) { c.sync = true }
}

// LinkDrift attributes drift to one RF link: the exponentially
// weighted moving average of the link's absolute shape error (dB)
// between centered online queries and their best-matching centered
// fingerprint columns. One link dominating while the rest stay flat
// suggests a hardware fault on that link; a broad rise across links is
// environment drift.
type LinkDrift struct {
	Link  int     `json:"link"`
	ErrDB float64 `json:"err_db"`
}

// MonitorStats is a point-in-time snapshot of a Monitor's counters. Its
// JSON form is what serve mode answers on GET /drift.
type MonitorStats struct {
	// Queries is the number of observations fed to the monitor.
	Queries uint64 `json:"queries"`
	// Residual is the staleness residual (dB) of the last observation.
	Residual float64 `json:"residual_db"`
	// Score is the detector's current normalized drift statistic
	// (>= 1 while the detector is flagging).
	Score float64 `json:"score"`
	// Detections counts declared drift episodes (hysteresis satisfied).
	Detections uint64 `json:"detections"`
	// UpdatesTriggered counts auto-updates started.
	UpdatesTriggered uint64 `json:"updates_triggered"`
	// UpdatesCompleted counts auto-updates that published a snapshot.
	UpdatesCompleted uint64 `json:"updates_completed"`
	// UpdateErrors counts auto-updates that failed (sampler or solver).
	UpdateErrors uint64 `json:"update_errors"`
	// Suppressed counts detections not acted on because of the cooldown
	// or a missing sampler.
	Suppressed uint64 `json:"suppressed"`
	// CooldownRemaining is the number of queries left before another
	// update may trigger.
	CooldownRemaining int `json:"cooldown_remaining"`
	// TopLinks are the worst-offending links by attributed drift error,
	// descending (empty until the first observation after a snapshot
	// change). See LinkDrift.
	TopLinks []LinkDrift `json:"top_links,omitempty"`
	// UpdateInFlight reports an asynchronous update still running.
	UpdateInFlight bool `json:"update_in_flight"`
	// SnapshotVersion is the deployment's latest published version.
	SnapshotVersion uint64 `json:"version"`
	// LastError is the message of the most recent update error, if any.
	LastError string `json:"last_error,omitempty"`
	// LastUpdateTraceID is the trace ID of the most recent
	// auto-triggered update, when the deployment has a tracer attached
	// (auto-update traces are always retained — retrieve the full
	// detect→sample→reconstruct→persist→swap span tree at /traces/{id}).
	LastUpdateTraceID string `json:"last_update_trace,omitempty"`
}

// Monitor closes the paper's detect -> measure -> update loop around a
// Deployment: it watches live localization traffic for staleness, and
// when the environment has drifted it collects fresh reference
// measurements through a ReferenceSampler and refreshes the database
// with Deployment.Update — no human in the loop deciding when.
//
// Feed every online RSS vector the deployment serves to Observe. Each
// observation is scored against the current snapshot (the residual: RMS
// distance in dB between the mean-centered query and its best-matching
// mean-centered fingerprint column) and streamed into the drift
// detector. A detection — the detector flagging for a configurable
// number of consecutive queries — triggers Deployment.Update on a
// background goroutine, rate-limited by a query-counted cooldown.
// Snapshot changes from any writer (the monitor itself, or a manual
// Update/Install elsewhere) re-baseline the residual and re-calibrate
// the detector automatically.
//
// Observe is safe for concurrent use and allocation-free in steady
// state (the monitor serializes internally; the residual scan is O(M*N)
// against pre-centered columns). Construct with NewMonitor; call Close
// when done to wait out any in-flight update.
//
// With a durable store attached, the monitor persists its counters and
// calibrated floor when calibration completes, when an auto-update
// finishes, on Sync and on Close, and NewMonitor resumes from them. A
// Fleet parking the site writes nothing: it keeps the state in memory
// for the site's next monitor, and writes it once on Fleet.Close or
// RemoveSite. A crash loses at most the counters since the last write,
// never the calibrated floor.
type Monitor struct {
	d       *Deployment
	sampler ReferenceSampler
	cfg     monitorConfig
	bd      baselineDetector // cfg.detector's persistence hooks, nil if absent

	mu         sync.Mutex
	res        *drift.Residualizer
	resVersion uint64
	scratch    []float64
	perLink    []float64
	attr       *drift.Attribution
	consec     int
	cooldown   int
	updating   bool
	closed     bool
	stats      MonitorStats
	// episodeStart is when the current drift episode's first flagged
	// observation arrived; an auto-update trace starts here, so its
	// detect span covers the whole hysteresis window.
	episodeStart time.Time

	// restored carries a persisted calibrated floor until the first
	// Observe decides whether it still applies (same snapshot version).
	restored      monitorState
	restoredOK    bool
	baselineSaved bool

	wg sync.WaitGroup
}

// baselineDetector is the optional persistence interface of a
// DriftDetector (see the DriftDetector docs).
type baselineDetector interface {
	Baseline() (mu, sigma float64, ok bool)
	SetBaseline(mu, sigma float64)
}

// monitorState is the persisted form of a monitor: the cumulative
// counters of MonitorStats plus the detector's calibrated floor and the
// snapshot version it was calibrated against. Stored as JSON in the
// deployment store's "monitor" state blob.
type monitorState struct {
	SnapshotVersion  uint64  `json:"snapshot_version"`
	Queries          uint64  `json:"queries"`
	Detections       uint64  `json:"detections"`
	UpdatesTriggered uint64  `json:"updates_triggered"`
	UpdatesCompleted uint64  `json:"updates_completed"`
	UpdateErrors     uint64  `json:"update_errors"`
	Suppressed       uint64  `json:"suppressed"`
	LastError        string  `json:"last_error,omitempty"`
	BaselineMu       float64 `json:"baseline_mu"`
	BaselineSigma    float64 `json:"baseline_sigma"`
	BaselineOK       bool    `json:"baseline_ok"`
}

// NewMonitor attaches a drift monitor to a deployment. sampler supplies
// the fresh measurements for auto-updates; a nil sampler puts the
// monitor in detect-only mode (detections are counted but never acted
// on).
func NewMonitor(d *Deployment, sampler ReferenceSampler, opts ...MonitorOption) (*Monitor, error) {
	if d == nil {
		return nil, errors.New("iupdater: NewMonitor: nil deployment")
	}
	cfg := monitorConfig{
		hysteresis: 4,
		cooldown:   defaultCooldownCeiling,
		adaptive:   true,
		acFloor:    defaultCooldownFloor,
		acCeil:     defaultCooldownCeiling,
		acSens:     defaultCooldownSens,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.detector == nil {
		cfg.detector = NewMeanShiftDetector(0, 0, 0)
	}
	if cfg.hysteresis < 1 {
		cfg.hysteresis = 1
	}
	if cfg.cooldown < 0 {
		cfg.cooldown = 0
	}
	if cfg.acFloor > cfg.acCeil {
		cfg.acFloor = cfg.acCeil
	}
	m := &Monitor{
		d:       d,
		sampler: sampler,
		cfg:     cfg,
		scratch: make([]float64, d.geo.Links),
		perLink: make([]float64, d.geo.Links),
		attr:    drift.NewAttribution(d.geo.Links, 0),
	}
	m.bd, _ = cfg.detector.(baselineDetector)
	// A restarted or rehydrated monitor resumes its previous life:
	// cumulative counters continue, and the calibrated floor is
	// re-installed on the first Observe if the snapshot it was learned
	// on is still the one being served.
	if ms, ok := d.monitorResumeState(); ok {
		m.stats.Queries = ms.Queries
		m.stats.Detections = ms.Detections
		m.stats.UpdatesTriggered = ms.UpdatesTriggered
		m.stats.UpdatesCompleted = ms.UpdatesCompleted
		m.stats.UpdateErrors = ms.UpdateErrors
		m.stats.Suppressed = ms.Suppressed
		m.stats.LastError = ms.LastError
		m.restored = ms
		m.restoredOK = ms.BaselineOK && m.bd != nil
	}
	return m, nil
}

// monitorResumeState returns the state a new monitor on d resumes from:
// what the fleet site d belongs to kept in memory when it last parked,
// else the store's "monitor" blob. A deployment without either — or
// with a missing or corrupt blob — reports false, and the monitor
// starts fresh.
func (d *Deployment) monitorResumeState() (monitorState, bool) {
	if ms := d.meters.parked.Load(); ms != nil {
		return *ms, true
	}
	st := d.cfg.store
	if st == nil {
		return monitorState{}, false
	}
	blob, ok, err := st.st.LoadState("monitor")
	if err != nil || !ok {
		return monitorState{}, false
	}
	var ms monitorState
	if json.Unmarshal(blob, &ms) != nil {
		return monitorState{}, false
	}
	return ms, true
}

// saveMonitorState writes ms as st's "monitor" state blob, durably
// (temp file, fsync, rename).
func saveMonitorState(st *Store, ms monitorState) error {
	blob, err := json.Marshal(ms)
	if err != nil {
		return err
	}
	return st.SaveState("monitor", blob)
}

// stateLocked returns the monitor's persistent state: its counters, and
// the detector's calibrated floor with the snapshot version it belongs
// to. Until the first Observe binds a snapshot, the floor and version
// are the ones the monitor resumed from, so a monitor closed or parked
// before it observed anything hands its floor on instead of erasing
// it. m.mu must be held.
func (m *Monitor) stateLocked() monitorState {
	ms := monitorState{
		SnapshotVersion:  m.resVersion,
		Queries:          m.stats.Queries,
		Detections:       m.stats.Detections,
		UpdatesTriggered: m.stats.UpdatesTriggered,
		UpdatesCompleted: m.stats.UpdatesCompleted,
		UpdateErrors:     m.stats.UpdateErrors,
		Suppressed:       m.stats.Suppressed,
		LastError:        m.stats.LastError,
	}
	switch {
	case m.res == nil:
		ms.SnapshotVersion = m.restored.SnapshotVersion
		ms.BaselineMu, ms.BaselineSigma, ms.BaselineOK = m.restored.BaselineMu, m.restored.BaselineSigma, m.restored.BaselineOK
	case m.bd != nil:
		ms.BaselineMu, ms.BaselineSigma, ms.BaselineOK = m.bd.Baseline()
	}
	return ms
}

// saveStateLocked persists the monitor's state to the deployment store,
// best-effort (a failed save only costs resume fidelity, never a
// detection). m.mu must be held.
func (m *Monitor) saveStateLocked() {
	if st := m.d.cfg.store; st != nil {
		_ = saveMonitorState(st, m.stateLocked())
	}
}

// Observe feeds one live online RSS vector (one reading per link) to the
// monitor. It returns an error only for malformed input (a wrong
// length, or a *ReadingError before any drift work) or a closed
// monitor; detection and update outcomes are reported through Stats.
func (m *Monitor) Observe(rss []float64) error {
	if err := checkReadings(rss); err != nil {
		return fmt.Errorf("iupdater: %w", err)
	}
	tr := m.d.cfg.tracer.Start("observe", m.d.cfg.site)
	defer tr.Finish()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("iupdater: monitor is closed")
	}
	snap := m.d.snap.Load()
	if m.res == nil || snap.version != m.resVersion {
		// A new database version changes the residual baseline: rebind
		// the scorer to the snapshot's locate index (whose centered
		// columns were already built on the publish path) and
		// re-calibrate the detector. This closes the update pipeline —
		// the re-baseline span links back to the publish that caused it
		// (when that publish was traced), so an auto-update's effect on
		// monitoring is causally attributable.
		sp := tr.StartSpan("rebaseline")
		m.res = drift.NewResidualizerIndex(snap.ix)
		m.resVersion = snap.version
		m.cfg.detector.Reset()
		if m.restoredOK && m.restored.SnapshotVersion == snap.version {
			// Restart resume: the persisted floor was calibrated against
			// this very snapshot, so re-install it instead of burning a
			// fresh calibration window. A version mismatch (the database
			// changed while the monitor was down) falls through to
			// normal re-calibration.
			m.bd.SetBaseline(m.restored.BaselineMu, m.restored.BaselineSigma)
			m.baselineSaved = true
		} else {
			m.baselineSaved = false
		}
		m.restoredOK = false
		m.consec = 0
		m.attr.Reset()
		sp.SetInt("version", int64(snap.version))
		if id, ok := m.d.PublishTraceID(snap.version); ok {
			sp.SetStr("publish_trace_id", id.String())
		}
		sp.End()
	}
	if len(rss) != m.res.Links() {
		return fmt.Errorf("iupdater: measurement has %d links, deployment has %d", len(rss), m.res.Links())
	}
	sp := tr.StartSpan("residual")
	r := m.res.ResidualAttributed(rss, m.scratch, m.perLink)
	m.attr.Observe(m.perLink)
	sp.SetFloat("residual_db", r)
	sp.End()
	m.stats.Queries++
	m.stats.Residual = r
	if m.cooldown > 0 {
		m.cooldown--
	}
	if m.cfg.detector.Observe(r) {
		if m.consec == 0 {
			m.episodeStart = time.Now()
		}
		m.consec++
	} else {
		m.consec = 0
	}
	m.stats.Score = m.cfg.detector.Score()
	root := tr.Root()
	root.SetFloat("score", m.stats.Score)
	root.SetInt("consecutive", int64(m.consec))
	// Persist the floor the moment calibration completes — a one-time
	// write per snapshot version, in the same "not the steady state"
	// class as the residualizer rebuild above. Steady-state Observe
	// never touches disk; the counters checkpoint on update completion,
	// Sync and Close, so a hard kill costs at most the stats delta since
	// then, never the calibrated floor.
	if !m.baselineSaved && m.bd != nil {
		if _, _, ok := m.bd.Baseline(); ok {
			m.baselineSaved = true
			m.saveStateLocked()
		}
	}
	if m.consec < m.cfg.hysteresis {
		return nil
	}
	suppressed := m.updating || m.cooldown > 0 || m.sampler == nil
	if m.consec == m.cfg.hysteresis {
		// First crossing of this episode: one detection, however long
		// the detector keeps flagging afterwards.
		m.stats.Detections++
		if suppressed {
			m.stats.Suppressed++
		}
	}
	if suppressed {
		return nil
	}
	m.triggerUpdateLocked()
	return nil
}

// nextCooldownLocked computes the cooldown armed by a triggered update.
// The fixed policy (WithUpdateCooldown) returns its constant; the
// adaptive default shrinks the ceiling toward the floor as the
// triggering residual rises above the detector's calibrated floor —
// see WithAdaptiveCooldown for the formula. m.mu must be held.
func (m *Monitor) nextCooldownLocked() int {
	if !m.cfg.adaptive {
		return m.cfg.cooldown
	}
	excess := 0.0
	if m.bd != nil {
		if mu, sigma, ok := m.bd.Baseline(); ok && sigma > 0 {
			excess = (m.stats.Residual - mu) / sigma
		}
	}
	if excess < 0 {
		excess = 0
	}
	cd := float64(m.cfg.acCeil) / (1 + m.cfg.acSens*excess)
	if cd < float64(m.cfg.acFloor) {
		return m.cfg.acFloor
	}
	return int(cd)
}

// triggerUpdateLocked starts the auto-update. m.mu must be held.
//
// With a tracer attached, the auto-update records a forced (always
// retained) trace whose start is rewound to the drift episode's first
// flagged observation: the detect span covers the whole hysteresis
// window, and the stages that follow — sample, reconstruct, persist,
// swap — land in the same tree, so "where did this update's time go?"
// has one causally complete answer at /traces/{id}.
func (m *Monitor) triggerUpdateLocked() {
	m.updating = true
	m.stats.UpdatesTriggered++
	m.cooldown = m.nextCooldownLocked()
	tr := m.d.cfg.tracer.Start("update", m.d.cfg.site)
	if tr != nil {
		tr.Force()
		tr.SetStart(m.episodeStart)
		sp := tr.StartSpanAt("detect", m.episodeStart)
		sp.SetFloat("residual_db", m.stats.Residual)
		sp.SetFloat("score", m.stats.Score)
		sp.SetInt("consecutive", int64(m.consec))
		sp.SetInt("snapshot_version", int64(m.resVersion))
		sp.End()
		m.stats.LastUpdateTraceID = tr.ID().String()
	}
	if m.cfg.sync {
		// Inline: Observe returns only after the new snapshot (or the
		// failure) is in place. performUpdate takes no monitor state, so
		// holding m.mu is safe — it just blocks concurrent observers,
		// which is the point of synchronous mode.
		m.finishUpdateLocked(m.performUpdate(tr))
		tr.Finish()
		return
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		err := m.performUpdate(tr)
		m.mu.Lock()
		m.finishUpdateLocked(err)
		m.mu.Unlock()
		tr.Root().SetBool("error", err != nil)
		tr.Finish()
	}()
}

// performUpdate samples fresh measurements and runs the deployment
// update, recording the sample stage (reference-point measurement)
// into tr; UpdateTraced records the rest of the pipeline. It touches
// no monitor state (only d and the sampler), so it runs without m.mu
// on the async path.
func (m *Monitor) performUpdate(tr *trace.Trace) error {
	refs, err := m.d.ReferenceLocations()
	if err != nil {
		return err
	}
	sp := tr.StartSpan(StageSample)
	t0 := time.Now()
	in, err := m.sampler.SampleReferences(refs)
	el := time.Since(t0)
	sp.SetInt("references", int64(len(refs)))
	sp.EndDur(el)
	m.d.meters.updLat[StageSample].Observe(el.Seconds())
	if err != nil {
		return err
	}
	_, err = m.d.UpdateTraced(tr, in.NoDecrease, in.Known, in.References)
	return err
}

// finishUpdateLocked records the update outcome and checkpoints the
// counters (an auto-update is the rarest, most valuable transition to
// survive a crash). m.mu must be held.
func (m *Monitor) finishUpdateLocked(err error) {
	m.updating = false
	defer m.saveStateLocked()
	if err != nil {
		m.stats.UpdateErrors++
		m.stats.LastError = err.Error()
		return
	}
	m.stats.UpdatesCompleted++
	// The published snapshot re-baselines the residual on the next
	// Observe (version check); nothing else to do here.
}

// Sync persists the monitor's counters and calibrated floor to the
// deployment's store now (a no-op without one). Close does this
// automatically; long-running servers may also call it on a checkpoint
// schedule of their own.
func (m *Monitor) Sync() {
	m.mu.Lock()
	m.saveStateLocked()
	m.mu.Unlock()
}

// driftAttributionTopK is how many worst-offending links
// MonitorStats.TopLinks reports, capped at the deployment's link count.
const driftAttributionTopK = 3

// Stats returns a consistent snapshot of the monitor's counters,
// including the top driftAttributionTopK drift-attributed links.
func (m *Monitor) Stats() MonitorStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.CooldownRemaining = m.cooldown
	s.UpdateInFlight = m.updating
	s.SnapshotVersion = m.d.Version()
	k := min(driftAttributionTopK, m.d.geo.Links)
	links := make([]int, k)
	errs := make([]float64, k)
	if n := m.attr.TopK(links, errs); n > 0 {
		s.TopLinks = make([]LinkDrift, n)
		for i := 0; i < n; i++ {
			s.TopLinks[i] = LinkDrift{Link: links[i], ErrDB: errs[i]}
		}
	}
	return s
}

// TopLinksInto is the allocation-free form of MonitorStats.TopLinks:
// it fills links/errs (parallel slices; their shared length caps k)
// with the worst drift-attributed links in descending error order and
// returns how many entries were written. Scrape loops reading
// attribution per request use it to stay off the allocator.
func (m *Monitor) TopLinksInto(links []int, errs []float64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.attr.TopK(links, errs)
}

// Close stops the monitor — subsequent Observe calls fail — and waits
// for any in-flight asynchronous update to finish, so callers can shut
// down knowing no reconstruction is still writing to the deployment.
// With a durable store attached, the final counters and calibrated
// floor are persisted so the next process's monitor resumes here.
func (m *Monitor) Close() {
	ms := m.park()
	if st := m.d.cfg.store; st != nil {
		// Best-effort, as every monitor save: Close reports no error.
		_ = saveMonitorState(st, ms)
	}
}

// park stops the monitor as Close does, but writes nothing: it returns
// the state Close persists, which a parked fleet site keeps in memory
// for the monitor its next rehydration builds. Nothing can change the
// state afterwards: Observe fails and no update is left in flight.
func (m *Monitor) park() monitorState {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stateLocked()
}
