package iupdater

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"iupdater/internal/loc"
	"iupdater/internal/obs"
	"iupdater/internal/replica"
	"iupdater/internal/store"
	"iupdater/internal/trace"
)

// This file is the replication surface: ServeRecords exposes a leader
// deployment's record log as a wire protocol, and Replica is the
// read-only follower that tails it. The wire frame format is exactly
// the store's on-disk record framing — a full snapshot or a
// changed-columns delta, CRC-framed — so the follower re-runs the same
// validation the store runs during crash recovery before any streamed
// byte can influence what Locate serves.

// maxStreamWait caps the leader-side long-poll duration a follower may
// request, bounding how long a caught-up records request can hold a
// connection open.
const maxStreamWait = 30 * time.Second

// ServeRecords returns an http.Handler streaming the deployment's
// snapshot record log to follower replicas. The handler answers GET
// requests with two query parameters:
//
//   - from: the version to resume at (the follower's last applied
//     version + 1). 0, or absent, requests a bootstrap: the stream
//     starts at the newest full record, from which a follower with no
//     prior state can materialize every later version. A from below
//     the compaction horizon gets 410 Gone (plus the oldest retained
//     version in Iupdater-Oldest-Version) — the records are gone and
//     the follower must re-bootstrap.
//   - wait: a long-poll duration (capped at 30s). A caught-up leader
//     holds the request open until the next publish or the deadline
//     instead of returning an empty response immediately.
//
// A 200 response is a raw concatenation of record frames (on-disk
// framing, full and delta records alike) in version order, with the
// leader's newest version in the Iupdater-Leader-Version header; an
// empty body means the follower is caught up. The deployment must
// have a durable store attached — the record log is the store.
//
// The handler only reads the log; serving replicas never blocks the
// leader's write path or changes its durability contract.
func (d *Deployment) ServeRecords() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := d.cfg.store
		if st == nil {
			http.Error(w, "iupdater: deployment has no durable store to replicate from", http.StatusNotImplemented)
			return
		}
		var from uint64
		if s := r.URL.Query().Get("from"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, fmt.Sprintf("iupdater: from %q: %v", s, err), http.StatusBadRequest)
				return
			}
			from = v
		}
		var wait time.Duration
		if s := r.URL.Query().Get("wait"); s != "" {
			v, err := time.ParseDuration(s)
			if err != nil || v < 0 {
				http.Error(w, fmt.Sprintf("iupdater: wait %q is not a duration", s), http.StatusBadRequest)
				return
			}
			if v > maxStreamWait {
				v = maxStreamWait
			}
			wait = v
		}
		frames, ok := d.framesOr(w, st, from)
		if !ok {
			return
		}
		if len(frames) == 0 && wait > 0 {
			// Subscribe before the re-check so a publish landing between
			// the check and the wait cannot be missed.
			updates, cancel := d.Updates()
			defer cancel()
			if frames, ok = d.framesOr(w, st, from); !ok {
				return
			}
			if len(frames) == 0 {
				timer := time.NewTimer(wait)
				select {
				case <-r.Context().Done():
					timer.Stop()
					return
				case <-timer.C:
				case <-updates:
					timer.Stop()
				}
				if frames, ok = d.framesOr(w, st, from); !ok {
					return
				}
			}
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Iupdater-Leader-Version", strconv.FormatUint(d.Version(), 10))
		if len(frames) > 0 {
			// Advertise the publish trace of the newest streamed record so
			// the follower's apply trace can link back to it (best effort:
			// publishes older than the retained trace window have no ID).
			if id, ok := d.PublishTraceID(st.LatestVersion()); ok {
				w.Header().Set("Iupdater-Trace-Id", id.String())
			}
		}
		for _, frame := range frames {
			if _, err := w.Write(frame); err != nil {
				// The follower vanished mid-stream; it will resume from
				// its last applied version.
				return
			}
		}
	})
}

// framesOr reads the record frames at from, writing the HTTP error
// (410 for a compacted-away resume point, with the horizon in
// Iupdater-Oldest-Version) when it cannot. ok reports whether the
// response is still writable.
func (d *Deployment) framesOr(w http.ResponseWriter, st *Store, from uint64) (frames [][]byte, ok bool) {
	frames, err := st.st.RecordFramesFrom(from)
	if errors.Is(err, store.ErrCompacted) {
		w.Header().Set("Iupdater-Oldest-Version", strconv.FormatUint(st.st.OldestVersion(), 10))
		http.Error(w, "iupdater: "+err.Error(), http.StatusGone)
		return nil, false
	}
	if err != nil {
		http.Error(w, "iupdater: "+err.Error(), http.StatusInternalServerError)
		return nil, false
	}
	return frames, true
}

// ReplicaOption configures a Replica opened with OpenReplica.
type ReplicaOption func(*replicaConfig)

type replicaConfig struct {
	client     *http.Client
	store      *Store
	wait       time.Duration
	minBackoff time.Duration
	maxBackoff time.Duration
	search     loc.IndexConfig
	tracer     *trace.Tracer
	site       string
}

// WithReplicaClient sets the HTTP client used to tail the leader
// (default http.DefaultClient). The client must not impose an overall
// request timeout shorter than the long-poll wait.
func WithReplicaClient(c *http.Client) ReplicaOption {
	return func(cfg *replicaConfig) { cfg.client = c }
}

// WithReplicaStore attaches a durable store to the replica for use at
// promotion time: Promote seeds it with the takeover snapshot (if it
// is not already there) so the promoted writer continues the version
// line durably. While following, the replica does not write to the
// store — the leader owns durability.
func WithReplicaStore(st *Store) ReplicaOption {
	return func(cfg *replicaConfig) { cfg.store = st }
}

// WithReplicaWait sets the long-poll duration hint sent to the leader
// (default 25s; the leader caps it at 30s).
func WithReplicaWait(d time.Duration) ReplicaOption {
	return func(cfg *replicaConfig) { cfg.wait = d }
}

// WithReplicaBackoff bounds the capped exponential retry backoff after
// failed polls (defaults 100ms and 5s).
func WithReplicaBackoff(min, max time.Duration) ReplicaOption {
	return func(cfg *replicaConfig) { cfg.minBackoff, cfg.maxBackoff = min, max }
}

// WithReplicaTracer attaches a span tracer to the replica, as
// WithTracer does for a leader deployment. Every tail poll records a
// "replica.poll" trace (longpoll → per-frame validate → apply); polls
// that carried frames are force-retained, and when the leader
// advertises the publish trace ID of its newest record in the
// Iupdater-Trace-Id response header, the follower trace carries it as
// the root leader_trace_id attribute — the cross-node link from a
// follower apply back to the leader publish that produced it. Replica
// Locate calls record "locate" traces under the same sampling policy.
// site labels the traces (typically the follower's site name).
func WithReplicaTracer(t *trace.Tracer, site string) ReplicaOption {
	return func(cfg *replicaConfig) { cfg.tracer, cfg.site = t, site }
}

// WithReplicaExactSearch forces the replica's snapshots to the
// bit-exact exhaustive locate tier, exactly as WithExactSearch does for
// a leader. A follower configured like its leader serves bit-identical
// Locate results at the same version under every tier; this option
// pins both ends to the reference scan when that identity must hold by
// construction rather than by the pruning proof.
func WithReplicaExactSearch() ReplicaOption {
	return func(cfg *replicaConfig) { cfg.search.Mode = loc.SearchExact }
}

// Replica is a read-only follower of a leader deployment: it tails the
// leader's records endpoint (see ServeRecords), validates every
// streamed record exactly as the store validates its log during crash
// recovery, and publishes each materialized snapshot through the same
// atomic-pointer swap a Deployment uses — Locate on a replica is
// lock-free and bit-identical to the leader at the same version.
//
// The tailer survives disconnects (capped exponential backoff with
// jitter, resuming from the last applied version) and leader
// compaction (a 410 response triggers a re-bootstrap from the leader's
// newest full record). All methods are safe for concurrent use.
//
// Construct with OpenReplica; end the life cycle with Close, or turn
// the replica into a writer with Promote.
type Replica struct {
	serving

	source string
	cfg    replicaConfig
	tailer *replica.Tailer

	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	geoKnown bool
	geo      Geometry
	// promoting is set once Promote has decided to take over; apply
	// refuses frames from then on.
	promoting bool
	promoted  *Deployment
	closed    bool
}

// OpenReplica starts following a leader's records endpoint, e.g.
// http://leader:8080/sites/office/records. It returns immediately —
// the first snapshot arrives asynchronously once the tailer has
// bootstrapped; use WaitVersion to block until the replica has caught
// up to a known version.
func OpenReplica(recordsURL string, opts ...ReplicaOption) (*Replica, error) {
	var cfg replicaConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.wait <= 0 {
		cfg.wait = 25 * time.Second
	}
	r := &Replica{
		serving: serving{lat: obs.NewHistogram(obs.DefLatencyBuckets...), tracer: cfg.tracer, site: cfg.site},
		source:  recordsURL,
		cfg:     cfg,
		done:    make(chan struct{}),
	}
	t, err := replica.New(replica.Config{
		URL:        recordsURL,
		Apply:      r.apply,
		Client:     cfg.client,
		Wait:       cfg.wait,
		MinBackoff: cfg.minBackoff,
		MaxBackoff: cfg.maxBackoff,
		Tracer:     cfg.tracer,
		Site:       cfg.site,
	})
	if err != nil {
		return nil, fmt.Errorf("iupdater: %w", err)
	}
	r.tailer = t
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	go func() {
		defer close(r.done)
		t.Run(ctx)
	}()
	return r, nil
}

// apply is the tailer's per-record callback: decode the materialized
// snapshot payload (a fresh matrix — the payload buffer is the
// tailer's to reuse) and publish it. It runs on the tailer goroutine;
// an error drops the leader connection and counts toward the tailer's
// re-bootstrap streak.
func (r *Replica) apply(version uint64, _ store.Kind, payload []byte) error {
	fp, g, err := decodeSnapshot(payload)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.promoting {
		return errors.New("replica is no longer following")
	}
	if !r.geoKnown {
		r.geo, r.geoKnown = g, true
	} else if g != r.geo {
		return fmt.Errorf("leader switched geometry to %+v (replica bootstrapped with %+v)", g, r.geo)
	}
	r.snap.Store(newSnapshot(version, fp, g.grid(), r.cfg.search))
	return nil
}

// Source returns the records URL the replica follows.
func (r *Replica) Source() string { return r.source }

// LeaderVersion returns the newest version the leader has advertised,
// 0 before the first successful poll.
func (r *Replica) LeaderVersion() uint64 { return r.tailer.LeaderVersion() }

// Lag returns how many versions the replica trails the leader's last
// advertisement, 0 when caught up (or before the first poll).
func (r *Replica) Lag() uint64 {
	leader, local := r.tailer.LeaderVersion(), r.Version()
	if leader <= local {
		return 0
	}
	return leader - local
}

// ReplicaStatus is a point-in-time view of a replica's replication
// state, surfaced in fleet summaries (and as their JSON "replica"
// object).
type ReplicaStatus struct {
	// Source is the leader records URL being followed.
	Source string `json:"source"`
	// Version is the latest snapshot version applied locally.
	Version uint64 `json:"version"`
	// LeaderVersion is the newest version the leader advertised, 0
	// before the first successful poll.
	LeaderVersion uint64 `json:"leader_version"`
	// Lag is max(LeaderVersion-Version, 0) — the replication lag in
	// versions.
	Lag uint64 `json:"lag"`
	// Reconnects counts failed leader polls (each retried over a fresh
	// connection under backoff).
	Reconnects uint64 `json:"reconnects"`
	// Rebootstraps counts re-bootstraps from the leader's newest full
	// record (compaction gap or apply-failure streak).
	Rebootstraps uint64 `json:"rebootstraps"`
	// Promoted reports that Promote has ended following; Version then
	// tracks the promoted deployment.
	Promoted bool `json:"promoted,omitempty"`
}

// Status returns the replica's current replication state. After
// Promote, Version follows the promoted deployment's publishes.
func (r *Replica) Status() ReplicaStatus {
	r.mu.Lock()
	promoted := r.promoted
	r.mu.Unlock()
	st := ReplicaStatus{
		Source:        r.source,
		Version:       r.Version(),
		LeaderVersion: r.tailer.LeaderVersion(),
		Lag:           r.Lag(),
		Reconnects:    r.tailer.Reconnects(),
		Rebootstraps:  r.tailer.Rebootstraps(),
		Promoted:      promoted != nil,
	}
	if promoted != nil {
		st.Version = promoted.Version()
		st.Lag = 0
	}
	return st
}

// WaitVersion blocks until the replica has applied a snapshot at or
// beyond version, returning that snapshot, or until ctx is done.
func (r *Replica) WaitVersion(ctx context.Context, version uint64) (*Snapshot, error) {
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for {
		if s := r.snap.Load(); s != nil && s.version >= version {
			return s, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("iupdater: waiting for replica version %d (at %d): %w", version, r.Version(), ctx.Err())
		case <-ticker.C:
		}
	}
}

// geometry returns the leader geometry learned from the first applied
// snapshot.
func (r *Replica) geometry() (Geometry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.geo, r.geoKnown
}

// storeRef returns the store attached with WithReplicaStore, nil
// otherwise. The fleet uses it to take over the store's lifecycle.
func (r *Replica) storeRef() *Store { return r.cfg.store }

// Promote ends following and turns the replica's latest applied
// snapshot into a live writer Deployment that continues the same
// monotone version line: the returned deployment starts at exactly the
// replica's current version, and its next publish is that version + 1.
//
// If a store was attached with WithReplicaStore (or is passed here via
// WithStore), it is seeded with a full snapshot at the takeover
// version when it is behind, so the handover itself is durable; a
// store already holding versions beyond the takeover point is refused
// — it belongs to a different (longer) history. Options are applied as
// in NewDeployment.
//
// Promote is one-way and at-most-once: a second call fails, and the
// replica's query methods keep serving the last applied snapshot (the
// promoted deployment is the live object). The old leader must stop
// publishing before its followers promote; replication has no
// leader-election protocol.
func (r *Replica) Promote(opts ...Option) (*Deployment, error) {
	r.mu.Lock()
	var err error
	switch {
	case r.closed:
		err = errors.New("iupdater: Promote: replica is closed")
	case r.promoting:
		err = errors.New("iupdater: Promote: replica is already promoted")
	case r.snap.Load() == nil:
		err = errors.New("iupdater: Promote: replica has not applied a snapshot yet")
	default:
		r.promoting = true
	}
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	// Stop the tailer before constructing the writer so no late frame
	// races the handover. The wait runs without r.mu, as in Close: an
	// apply in flight needs the mutex to finish, and once it does it
	// sees promoting and refuses every later frame.
	r.cancel()
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cfg.store != nil {
		opts = append([]Option{WithStore(r.cfg.store)}, opts...)
	}
	snap := r.snap.Load()
	d, err := newDeploymentAt(snap.fp, r.geo, snap.version, opts...)
	if err != nil {
		r.promoting = false
		return nil, err
	}
	r.promoted = d
	return d, nil
}

// Promoted returns the deployment created by Promote, nil while the
// replica is still following.
func (r *Replica) Promoted() *Deployment {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.promoted
}

// Close stops tailing the leader. The last applied snapshot remains
// queryable; an attached store is not closed (its lifecycle belongs to
// the caller, or to the Fleet when the replica is registered in one).
// Close is idempotent and safe after Promote.
func (r *Replica) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	r.cancel()
	<-r.done
	return nil
}
