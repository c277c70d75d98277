package iupdater

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iupdater/internal/obs"
)

// Fleet is a registry of named site deployments — one Deployment (with
// an optional Monitor and durable Store) per physical site — for
// operators running device-free localization across many rooms,
// buildings or branches. Each site drifts on its own schedule and owns
// its own store directory, monitor and version line; the Fleet gives
// them one lifecycle (AddSite/RemoveSite/Close) and one observability
// surface (Summaries), which cmd/iupdater's serve mode exposes under
// /sites.
//
// Sites can come and go at runtime: AddSite registers a new site while
// traffic flows, RemoveSite shuts one down and closes its monitor and
// store. With WithResidentLimit the fleet also runs a materialized-
// snapshot LRU: when more than the limit of sites hold a live
// Deployment, the least-recently-queried parkable site is parked — its
// in-RAM snapshot, locate index and monitor are released while the
// durable store stays open — and the first query that reaches a parked
// site re-materializes it from the store through the same read path a
// restart uses. Cold sites then cost disk, not RAM, so a
// single process can register thousands of sites while keeping only the
// hot set materialized.
//
// All methods are safe for concurrent use. Per-site request traffic
// goes through Site.Hydrate, which on a hydrated site is a single
// atomic load plus an LRU touch — lock-free and allocation-free — so
// the fleet registry is never on a query hot path.
type Fleet struct {
	mu     sync.RWMutex
	sites  map[string]*Site
	closed bool

	// residentLimit bounds how many sites may hold a materialized
	// Deployment at once; 0 means unlimited (no parking).
	residentLimit int
	// clock is the LRU's logical clock: every Hydrate stamps its site
	// with the next tick, and eviction picks the smallest stamp.
	clock atomic.Int64
	// evictMu serializes eviction sweeps so concurrent rehydrations
	// don't park each other's freshly hydrated sites past the limit.
	evictMu sync.Mutex

	evictions    obs.Counter
	rehydrations obs.Counter
	rehydLat     *obs.Histogram
}

// FleetOption configures a Fleet.
type FleetOption func(*Fleet)

// WithResidentLimit bounds how many sites may keep a materialized
// snapshot (Deployment + locate index + monitor) in RAM at once;
// n <= 0 means unlimited. Only parkable sites — writers with a durable
// store whose monitor (if any) was provided as a factory — count
// toward and are evicted by the limit; replicas and in-memory sites
// are always resident.
func WithResidentLimit(n int) FleetOption {
	return func(f *Fleet) { f.residentLimit = n }
}

// siteLive is the materialized half of a site: what parking releases
// and rehydration rebuilds. The pair swaps atomically so hot-path
// readers never observe a deployment without its monitor.
type siteLive struct {
	dep *Deployment
	mon *Monitor
}

// Site is one named deployment registered in a Fleet — a writer added
// with Add/AddSite, or a read-only follower added with AddReplica.
type Site struct {
	name  string
	fleet *Fleet
	rep   *Replica

	// live is non-nil while the site is hydrated. Queries load it with
	// a single atomic read; parking swaps it to nil.
	live      atomic.Pointer[siteLive]
	lastTouch atomic.Int64

	// hydMu serializes park, rehydrate and remove. Never held while
	// evicting another site (see Fleet.enforceLimit).
	hydMu   sync.Mutex
	removed bool

	// Immutable after AddSite.
	store      *Store
	geo        Geometry
	depCfg     config
	meters     *meters
	monFactory func(*Deployment) (*Monitor, error)
	parkable   bool
	payload    any
}

// Name returns the site's registry name.
func (s *Site) Name() string { return s.name }

// Deployment returns the site's deployment — nil for a replica site
// (whose serving state lives in Replica) and nil while the site is
// parked. Use Hydrate to get a deployment that is re-materialized on
// demand.
func (s *Site) Deployment() *Deployment {
	if l := s.live.Load(); l != nil {
		return l.dep
	}
	return nil
}

// Monitor returns the site's drift monitor, nil if the site runs
// without one or is parked.
func (s *Site) Monitor() *Monitor {
	if l := s.live.Load(); l != nil {
		return l.mon
	}
	return nil
}

// Replica returns the site's follower, nil for a writer site.
func (s *Site) Replica() *Replica { return s.rep }

// Payload returns the opaque value given as SiteConfig.Payload, nil for
// a replica site.
func (s *Site) Payload() any { return s.payload }

// Hydrated reports whether the site currently holds a materialized
// Deployment. Replica sites report true (their serving state is not
// subject to parking).
func (s *Site) Hydrated() bool {
	return s.rep != nil || s.live.Load() != nil
}

// Hydrate returns the site's deployment and monitor, re-materializing
// them from the durable store if the site is parked. On a hydrated
// site this is the query hot path: one atomic load and an LRU touch,
// lock-free and allocation-free. The returned monitor is nil for
// unmonitored sites. Replica and removed sites fail: a replica serves
// through Replica, and a removed site's store is closed.
func (s *Site) Hydrate() (*Deployment, *Monitor, error) {
	if l := s.live.Load(); l != nil {
		s.touch()
		return l.dep, l.mon, nil
	}
	return s.rehydrate()
}

// touch stamps the site with the fleet LRU clock's next tick.
func (s *Site) touch() {
	s.lastTouch.Store(s.fleet.clock.Add(1))
}

// rehydrate re-materializes a parked site: the latest snapshot is
// loaded from the store as a restart loads it, the
// locate index rebuilt under the exact config the site was added with,
// and the monitor (if a factory was provided) reconstructed. The new
// deployment takes over the site's meters, so its locate, update-stage
// and publish counters continue rather than reset, and its monitor
// resumes the counters and calibrated floor park kept there — drift
// tracking survives parking as it survives a restart, without the state
// blob ever being read.
func (s *Site) rehydrate() (*Deployment, *Monitor, error) {
	s.hydMu.Lock()
	if l := s.live.Load(); l != nil {
		// Lost the race to another query: its hydration serves us too.
		s.hydMu.Unlock()
		s.touch()
		return l.dep, l.mon, nil
	}
	if s.removed {
		s.hydMu.Unlock()
		return nil, nil, fmt.Errorf("iupdater: site %q has been removed", s.name)
	}
	if s.rep != nil {
		s.hydMu.Unlock()
		return nil, nil, fmt.Errorf("iupdater: site %q is a replica (serve through Replica)", s.name)
	}
	start := time.Now()
	dep, err := openDeploymentCfg(s.store, s.depCfg, s.meters)
	if err != nil {
		s.hydMu.Unlock()
		return nil, nil, fmt.Errorf("iupdater: rehydrating site %q: %w", s.name, err)
	}
	var mon *Monitor
	if s.monFactory != nil {
		mon, err = s.monFactory(dep)
		if err != nil {
			s.hydMu.Unlock()
			return nil, nil, fmt.Errorf("iupdater: rehydrating site %q monitor: %w", s.name, err)
		}
	}
	l := &siteLive{dep: dep, mon: mon}
	s.live.Store(l)
	s.touch()
	f := s.fleet
	s.hydMu.Unlock()
	f.rehydrations.Inc()
	f.rehydLat.Observe(time.Since(start).Seconds())
	// Enforce the limit only after releasing our own hydMu: the victim
	// may be any other site, and holding two sites' hydMu at once would
	// deadlock two concurrent rehydrations evicting each other.
	f.enforceLimit(s)
	return l.dep, l.mon, nil
}

// park releases the site's materialized half without touching the
// disk: the monitor is stopped first (synchronously waiting out an
// in-flight auto-update) and its state — counters, calibrated floor and
// the floor's snapshot version — kept on the site's meters, then the
// live pointer swaps to nil. The store stays open — that is the point —
// and queries pinned to the old snapshot finish against it untouched.
// Reports whether anything was released.
func (s *Site) park() bool {
	s.hydMu.Lock()
	defer s.hydMu.Unlock()
	if s.removed || !s.parkable {
		return false
	}
	l := s.live.Load()
	if l == nil {
		return false
	}
	if l.mon != nil {
		ms := l.mon.park()
		s.meters.parked.Store(&ms)
	}
	s.live.Store(nil)
	return true
}

// shutdown is the terminal half of RemoveSite and Close: monitor
// first (waiting out in-flight auto-updates), then its final state —
// the live monitor's, or what park kept in memory — written to the
// store once, then replica tailer, then store.
func (s *Site) shutdown() error {
	s.hydMu.Lock()
	defer s.hydMu.Unlock()
	if s.removed {
		return nil
	}
	s.removed = true
	l := s.live.Load()
	s.live.Store(nil)
	var final *monitorState
	if l != nil && l.mon != nil {
		ms := l.mon.park()
		final = &ms
	} else if l == nil && s.meters != nil {
		final = s.meters.parked.Load()
	}
	var errs []error
	if final != nil && s.store != nil {
		if err := saveMonitorState(s.store, *final); err != nil {
			errs = append(errs, err)
		}
	}
	var st *Store
	if s.rep != nil {
		// Stop tailing before closing the store a promotion may have
		// attached to the version line.
		s.rep.Close()
		st = s.rep.storeRef()
	} else {
		st = s.store
	}
	if st != nil {
		if err := st.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("site %s: %w", s.name, errors.Join(errs...))
	}
	return nil
}

// Summary returns the site's point-in-time serving state.
func (s *Site) Summary() SiteSummary {
	if s.rep != nil {
		status := s.rep.Status()
		sum := SiteSummary{
			Name:     s.name,
			Version:  status.Version,
			Hydrated: true,
			Replica:  &status,
		}
		// Geometry is learned from the first applied snapshot; before
		// that the replica has no serving shape to report.
		if g, ok := s.rep.geometry(); ok {
			sum.Links, sum.Cells = g.Links, g.NumCells()
		}
		if snap := s.rep.Snapshot(); snap != nil {
			sum.Search = &SearchSummary{Tier: snap.SearchTier(), Stats: snap.SearchStats()}
		}
		if st := s.rep.storeRef(); st != nil {
			sum.Durable = true
			sum.StoredVersions = st.Versions()
			sum.StoredRecords = st.Records()
			sum.OldestVersion = st.OldestVersion()
		}
		return sum
	}
	l := s.live.Load()
	if l == nil {
		// Parked (or just removed): everything reportable lives in the
		// store. The version index survives even a closed store, so a
		// summary racing RemoveSite degrades to zeros, never panics.
		sum := SiteSummary{
			Name:  s.name,
			Links: s.geo.Links,
			Cells: s.geo.NumCells(),
		}
		if s.store != nil {
			sum.Durable = true
			sum.Version = s.store.LatestVersion()
			sum.StoredVersions = s.store.Versions()
			sum.StoredRecords = s.store.Records()
			sum.OldestVersion = s.store.OldestVersion()
		}
		return sum
	}
	snap := l.dep.Snapshot()
	sum := SiteSummary{
		Name:     s.name,
		Version:  l.dep.Version(),
		Links:    l.dep.Geometry().Links,
		Cells:    l.dep.Geometry().NumCells(),
		Hydrated: true,
		Search:   &SearchSummary{Tier: snap.SearchTier(), Stats: snap.SearchStats()},
	}
	if st := l.dep.Store(); st != nil {
		sum.Durable = true
		// Versions and Records both return freshly allocated slices, so
		// the summary never aliases store internals — callers may keep
		// or mutate it freely.
		sum.StoredVersions = st.Versions()
		sum.StoredRecords = st.Records()
		sum.OldestVersion = st.OldestVersion()
	}
	if l.mon != nil {
		stats := l.mon.Stats()
		sum.Drift = &stats
	}
	return sum
}

// SiteSummary is the per-site line of the fleet dashboard: identity,
// serving version, durability and drift state.
type SiteSummary struct {
	// Name is the site's registry name.
	Name string
	// Version is the latest published snapshot version (for a parked
	// site, the latest stored version it would rehydrate to).
	Version uint64
	// Links and Cells describe the site's geometry.
	Links, Cells int
	// Hydrated reports whether the site holds a materialized snapshot
	// in RAM. Parked sites are false; their next query rehydrates them.
	Hydrated bool
	// Durable reports whether a snapshot store is attached.
	Durable bool
	// StoredVersions lists the store's retained versions (ascending),
	// nil for in-memory sites. These are the versions Rollback accepts.
	StoredVersions []uint64
	// StoredRecords describes each retained version's on-disk record
	// (full snapshot or delta, and its byte footprint), nil for
	// in-memory sites.
	StoredRecords []RecordInfo
	// OldestVersion is the store's compaction horizon — the oldest
	// retained version — 0 for in-memory sites.
	OldestVersion uint64
	// Search carries the serving snapshot's candidate-search tier and
	// cumulative work counters, nil for a parked site or a replica that
	// has not applied its first snapshot yet. The counters are per
	// snapshot version: every publish starts a fresh index.
	Search *SearchSummary
	// Drift carries the monitor counters, nil for unmonitored or parked
	// sites.
	Drift *MonitorStats
	// Replica carries the replication state (source, applied and leader
	// versions, lag), nil for writer sites.
	Replica *ReplicaStatus
}

// SearchSummary pairs the serving snapshot's candidate-search tier
// ("pruned" or "exact") with its cumulative SearchStats.
type SearchSummary struct {
	Tier  string
	Stats SearchStats
}

// FleetStats is the fleet-level lifecycle and LRU state.
type FleetStats struct {
	// Sites is the number of registered sites.
	Sites int
	// Resident is how many sites currently hold a materialized snapshot.
	Resident int
	// Evictions counts sites parked by the resident limit.
	Evictions uint64
	// Rehydrations counts parked sites re-materialized by a query.
	Rehydrations uint64
}

// NewFleet returns an empty fleet.
func NewFleet(opts ...FleetOption) *Fleet {
	f := &Fleet{
		sites:    make(map[string]*Site),
		rehydLat: obs.NewHistogram(obs.DefLatencyBuckets...),
	}
	for _, opt := range opts {
		opt(f)
	}
	return f
}

// SiteConfig describes a site handed to AddSite.
type SiteConfig struct {
	// Deployment is the site's writer; required.
	Deployment *Deployment
	// Monitor optionally attaches an already-running drift monitor.
	Monitor *Monitor
	// MonitorFactory, when set, is how the fleet rebuilds the monitor
	// after a parked site rehydrates (a Monitor is bound to one
	// Deployment, so parking must stop it and rehydration needs a
	// fresh one; a NewMonitor on the deployment it is handed resumes
	// the counters and calibrated floor the parked monitor left). When
	// Monitor is nil the factory also builds the initial monitor. A
	// site with a Monitor but no factory is never parked — the fleet
	// could not restore its monitoring.
	MonitorFactory func(*Deployment) (*Monitor, error)
	// Payload is an opaque value the caller keeps with the site (serve
	// mode keeps its testbed, simulated clock and bearer token there),
	// returned by Site.Payload. The fleet never reads it.
	Payload any
}

// Add registers a site under a unique name (letters, digits, - and _;
// it becomes a URL path segment in serve mode). mon may be nil for an
// unmonitored site. The fleet takes over lifecycle: Close closes the
// site's monitor and store, and a closed fleet rejects further Adds —
// a site registered after Close would never be closed. Equivalent to
// AddSite with just Deployment and Monitor set.
func (f *Fleet) Add(name string, d *Deployment, mon *Monitor) (*Site, error) {
	return f.AddSite(name, SiteConfig{Deployment: d, Monitor: mon})
}

// AddSite registers a site under a unique name at any point in the
// fleet's life — serve mode calls it from the PUT /sites/{name}
// lifecycle route. The site is immediately hydrated (it arrives with a
// live Deployment) and, when a resident limit is set, joins the LRU:
// sites with a durable store whose monitoring is restorable (no
// monitor, or a MonitorFactory) are parkable. Adding past the limit
// parks the least-recently-used parkable site.
func (f *Fleet) AddSite(name string, cfg SiteConfig) (*Site, error) {
	d := cfg.Deployment
	if d == nil {
		return nil, errors.New("iupdater: Fleet.AddSite: nil deployment")
	}
	if err := checkSiteName(name); err != nil {
		return nil, err
	}
	mon := cfg.Monitor
	if mon == nil && cfg.MonitorFactory != nil {
		var err error
		mon, err = cfg.MonitorFactory(d)
		if err != nil {
			return nil, fmt.Errorf("iupdater: Fleet.AddSite: building monitor for %q: %w", name, err)
		}
	}
	site := &Site{
		name:       name,
		fleet:      f,
		store:      d.Store(),
		geo:        d.Geometry(),
		depCfg:     d.cfg,
		meters:     d.meters,
		monFactory: cfg.MonitorFactory,
		payload:    cfg.Payload,
	}
	site.parkable = site.store != nil && (mon == nil || cfg.MonitorFactory != nil)
	site.live.Store(&siteLive{dep: d, mon: mon})
	site.touch()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, errors.New("iupdater: Fleet.AddSite: fleet is closed")
	}
	if _, ok := f.sites[name]; ok {
		f.mu.Unlock()
		return nil, fmt.Errorf("iupdater: site %q already registered", name)
	}
	f.sites[name] = site
	f.mu.Unlock()
	f.enforceLimit(site)
	return site, nil
}

// RemoveSite unregisters a site and shuts it down: monitor first
// (waiting out in-flight auto-updates, then writing its final state —
// for a parked site, the state park kept in memory), then replica
// tailer, then store. In-flight queries pinned to the site's last
// snapshot finish against RAM; a later Hydrate on a retained *Site
// handle fails.
func (f *Fleet) RemoveSite(name string) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errors.New("iupdater: Fleet.RemoveSite: fleet is closed")
	}
	s, ok := f.sites[name]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("iupdater: site %q not registered", name)
	}
	delete(f.sites, name)
	f.mu.Unlock()
	if err := s.shutdown(); err != nil {
		return fmt.Errorf("iupdater: removing %w", err)
	}
	return nil
}

// AddReplica registers a read-only follower site under a unique name
// (same naming rule as Add). The fleet takes over lifecycle: Close
// stops the replica's tailer and closes its attached store (if any).
// The replica shows up in Summaries with its replication lag. Replica
// sites are never parked: their serving state is the tailer's, not a
// store materialization the fleet could rebuild.
func (f *Fleet) AddReplica(name string, r *Replica) (*Site, error) {
	if r == nil {
		return nil, errors.New("iupdater: Fleet.AddReplica: nil replica")
	}
	if err := checkSiteName(name); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, errors.New("iupdater: Fleet.AddReplica: fleet is closed")
	}
	if _, ok := f.sites[name]; ok {
		return nil, fmt.Errorf("iupdater: site %q already registered", name)
	}
	site := &Site{name: name, fleet: f, rep: r}
	f.sites[name] = site
	return site, nil
}

func checkSiteName(name string) error {
	if name == "" {
		return errors.New("iupdater: empty site name")
	}
	for _, r := range name {
		if (r < 'a' || r > 'z') && (r < 'A' || r > 'Z') && (r < '0' || r > '9') && r != '-' && r != '_' {
			return fmt.Errorf("iupdater: site name %q: use letters, digits, - and _", name)
		}
	}
	return nil
}

// enforceLimit parks least-recently-used parkable sites until the
// resident count is back within the limit. exempt (the site that just
// hydrated or was just added) is never the victim of its own sweep.
// Sweeps are serialized but each victim is parked under only its own
// hydMu, so a sweep never deadlocks against a concurrent rehydration.
func (f *Fleet) enforceLimit(exempt *Site) {
	if f.residentLimit <= 0 {
		return
	}
	f.evictMu.Lock()
	defer f.evictMu.Unlock()
	for {
		victim := f.evictionVictim(exempt)
		if victim == nil {
			return
		}
		if victim.park() {
			f.evictions.Inc()
		}
		// A failed park means the victim raced into a terminal or
		// already-parked state; the recount on the next pass sees it.
	}
}

// evictionVictim returns the least-recently-touched parkable resident
// site, or nil when the resident count is within the limit (or nothing
// is parkable).
func (f *Fleet) evictionVictim(exempt *Site) *Site {
	f.mu.RLock()
	defer f.mu.RUnlock()
	resident := 0
	var victim *Site
	var victimTouch int64
	for _, s := range f.sites {
		if s.rep != nil || s.live.Load() == nil {
			continue
		}
		resident++
		if s == exempt || !s.parkable {
			continue
		}
		if t := s.lastTouch.Load(); victim == nil || t < victimTouch {
			victim, victimTouch = s, t
		}
	}
	if resident <= f.residentLimit {
		return nil
	}
	return victim
}

// Stats returns the fleet's lifecycle and LRU counters.
func (f *Fleet) Stats() FleetStats {
	f.mu.RLock()
	stats := FleetStats{Sites: len(f.sites)}
	for _, s := range f.sites {
		if s.rep != nil || s.live.Load() != nil {
			stats.Resident++
		}
	}
	f.mu.RUnlock()
	stats.Evictions = f.evictions.Value()
	stats.Rehydrations = f.rehydrations.Value()
	return stats
}

// RehydrationLatency exposes the histogram of park-to-serve latencies:
// how long a cold site's first query waited for the snapshot to
// re-materialize from the store.
func (f *Fleet) RehydrationLatency() *obs.Histogram { return f.rehydLat }

// Site looks a site up by name.
func (f *Fleet) Site(name string) (*Site, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	s, ok := f.sites[name]
	return s, ok
}

// Names returns the registered site names in ascending order.
func (f *Fleet) Names() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.sites))
	for name := range f.sites {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Summaries returns every site's summary, ordered by name — the fleet
// dashboard aggregating each site's version and drift state. Parked
// sites are reported from their store without rehydrating them: a
// dashboard scrape must not defeat the LRU.
func (f *Fleet) Summaries() []SiteSummary {
	f.mu.RLock()
	sites := make([]*Site, 0, len(f.sites))
	for _, s := range f.sites {
		sites = append(sites, s)
	}
	f.mu.RUnlock()
	sort.Slice(sites, func(i, j int) bool { return sites[i].name < sites[j].name })
	out := make([]SiteSummary, len(sites))
	for i, s := range sites {
		// Summary takes per-site locks only; the registry lock is
		// already released so a slow site cannot block Add/Site.
		out[i] = s.Summary()
	}
	return out
}

// Close shuts every site down: monitors first (waiting out in-flight
// auto-updates), then each site's final monitor state written to its
// store once — a resident site's from its live monitor, a parked
// site's from the memory park kept it in — then stores. One site's
// failure, whether writing that state or closing the store, never stops
// the remaining sites from closing; the failures are combined with
// errors.Join (each wrapped with its site name), so callers can still
// reach the underlying values with errors.Is and errors.As. A second
// Close is a no-op, and Add after Close fails.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	sites := make([]*Site, 0, len(f.sites))
	for _, s := range f.sites {
		sites = append(sites, s)
	}
	f.sites = nil
	f.mu.Unlock()
	sort.Slice(sites, func(i, j int) bool { return sites[i].name < sites[j].name })
	var errs []error
	for _, s := range sites {
		if err := s.shutdown(); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("iupdater: closing fleet: %w", errors.Join(errs...))
	}
	return nil
}
