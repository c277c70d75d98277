// Package replica implements the follower side of record-log
// replication: a Tailer keeps a long-poll HTTP request open against a
// leader's records endpoint, splits the response stream back into
// record frames, and applies each one through a store.Replay — the
// same CRC recheck and delta structural validation the store runs
// during Open recovery — before handing the materialized payload to
// the caller.
//
// The wire protocol is deliberately thin: the leader streams raw
// on-disk record frames (see internal/store), so the follower trusts
// nothing about the transport — a torn, corrupted or replayed frame is
// rejected by the Replay without state change, the connection is
// dropped, and the next request resumes from the last applied version.
// A 410 response means the requested resume version precedes the
// leader's compaction horizon; the Tailer then re-bootstraps from the
// leader's newest full record with a fresh Replay.
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"iupdater/internal/obs"
	"iupdater/internal/store"
	"iupdater/internal/trace"
)

// Config parameterizes a Tailer.
type Config struct {
	// URL is the leader's records endpoint, e.g.
	// http://leader:8080/sites/office/records. Required.
	URL string

	// Apply is invoked once per validated record, in version order,
	// with the fully materialized payload (delta frames are resolved
	// against the follower's state before the call). The payload slice
	// is reused; implementations must copy what they keep. Returning an
	// error drops the connection and counts toward the re-bootstrap
	// streak. Required.
	Apply func(version uint64, kind store.Kind, payload []byte) error

	// Client issues the requests (default http.DefaultClient). It must
	// not impose an overall request timeout shorter than Wait, or every
	// long poll turns into a transport error.
	Client *http.Client

	// Wait is the long-poll duration hint sent to the leader (default
	// 25s): a caught-up leader holds the request open this long waiting
	// for the next publish instead of returning an empty response
	// immediately.
	Wait time.Duration

	// MinBackoff and MaxBackoff bound the capped exponential backoff
	// between failed polls (defaults 100ms and 5s). Each retry doubles
	// the delay up to MaxBackoff, with up to 50% random jitter added so
	// a fleet of followers does not reconnect in lockstep; any
	// successfully processed response resets the delay to MinBackoff.
	MinBackoff, MaxBackoff time.Duration

	// Tracer, when non-nil, records one "replica.poll" trace per poll:
	// a longpoll span covering the leader request plus, per streamed
	// frame, a validate span (the Replay CRC/structural recheck) and an
	// apply span (the caller's Apply). Polls that applied at least one
	// frame — or rejected one — are force-retained; empty caught-up
	// polls follow normal sampling so long-poll idling does not flood
	// the rings. The leader's publish trace ID, when advertised in the
	// Iupdater-Trace-Id response header, is recorded as the root span's
	// leader_trace_id attribute, linking the follower apply back to the
	// leader publish that produced the newest streamed record.
	Tracer *trace.Tracer

	// Site labels the Tracer's traces (the follower's site name).
	Site string
}

// applyFailureThreshold is the number of consecutive apply-side
// rejections after which the Tailer stops retrying the same resume
// version and re-bootstraps from the leader's newest full record. One
// or two rejections are indistinguishable from transport corruption and
// a retry is cheap; a persistent streak means the follower's
// materialized state has diverged from the leader's chain (e.g. the
// follower restarted into a different history), and only a fresh full
// record can re-anchor it.
const applyFailureThreshold = 3

// Tailer tails one leader records endpoint. Construct with New, drive
// with Run; the exported state accessors are safe to call concurrently
// with Run.
type Tailer struct {
	cfg    Config
	replay store.Replay
	next   uint64 // version to request next; 0 = bootstrap

	leader atomic.Uint64 // newest version the leader advertised

	reconnects   obs.Counter // failed polls (each is followed by a fresh connection)
	rebootstraps obs.Counter // re-bootstraps from the leader's newest full record
}

// New validates the configuration and returns a Tailer ready to Run.
func New(cfg Config) (*Tailer, error) {
	if cfg.URL == "" {
		return nil, errors.New("replica: Config.URL is required")
	}
	if _, err := url.Parse(cfg.URL); err != nil {
		return nil, fmt.Errorf("replica: records URL: %w", err)
	}
	if cfg.Apply == nil {
		return nil, errors.New("replica: Config.Apply is required")
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Wait <= 0 {
		cfg.Wait = 25 * time.Second
	}
	if cfg.MinBackoff <= 0 {
		cfg.MinBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff < cfg.MinBackoff {
		cfg.MaxBackoff = 5 * time.Second
		if cfg.MaxBackoff < cfg.MinBackoff {
			cfg.MaxBackoff = cfg.MinBackoff
		}
	}
	return &Tailer{cfg: cfg}, nil
}

// LeaderVersion returns the newest version the leader has advertised
// in a response header, 0 before the first successful poll. The
// difference against the newest applied version is the replication lag
// in versions.
func (t *Tailer) LeaderVersion() uint64 { return t.leader.Load() }

// Reconnects counts failed polls — transport errors, non-200 leader
// responses, or rejected frames — each of which drops the connection
// and retries under backoff.
func (t *Tailer) Reconnects() uint64 { return t.reconnects.Value() }

// Rebootstraps counts the times the Tailer discarded its follower state
// and re-requested the leader's newest full record (compaction gap or
// apply-failure streak).
func (t *Tailer) Rebootstraps() uint64 { return t.rebootstraps.Value() }

// errCompacted marks a 410 response: the resume version precedes the
// leader's compaction horizon.
var errCompacted = errors.New("replica: resume version precedes the leader's compaction horizon")

// applyError marks a frame the local Replay (or the Apply callback)
// rejected — the transport delivered bytes fine, but they did not
// validate against local state.
type applyError struct{ err error }

func (e applyError) Error() string { return e.err.Error() }
func (e applyError) Unwrap() error { return e.err }

// Run tails the leader until ctx is canceled, which is the only way it
// returns (with ctx's error). All transport and validation failures
// are retried under the configured backoff; a compacted-away resume
// point or a persistent apply-failure streak triggers a re-bootstrap
// from the leader's newest full record.
func (t *Tailer) Run(ctx context.Context) error {
	backoff := t.cfg.MinBackoff
	streak := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := t.poll(ctx)
		if err == nil {
			backoff = t.cfg.MinBackoff
			streak = 0
			continue
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		t.reconnects.Inc()
		if errors.Is(err, errCompacted) {
			// The records we were waiting for are gone for good;
			// re-request the newest full record instead of retrying.
			t.rebootstrap()
		}
		var ae applyError
		if errors.As(err, &ae) {
			if streak++; streak >= applyFailureThreshold {
				// Retrying the same version keeps failing: our
				// materialized state no longer matches the leader's
				// chain. Start over from a full record.
				t.rebootstrap()
				streak = 0
			}
		} else {
			streak = 0
		}
		if !sleep(ctx, jittered(backoff)) {
			return ctx.Err()
		}
		if backoff *= 2; backoff > t.cfg.MaxBackoff {
			backoff = t.cfg.MaxBackoff
		}
	}
}

// rebootstrap forgets all follower state so the next poll requests the
// leader's newest full record (from=0) into a fresh Replay.
func (t *Tailer) rebootstrap() {
	t.next = 0
	t.replay = store.Replay{}
	t.rebootstraps.Inc()
}

// poll issues one records request and applies every frame it returns.
// A nil return means the response was processed completely (possibly
// with zero frames: the follower is caught up). Frames applied before
// a mid-stream error still count — the next poll resumes after them.
func (t *Tailer) poll(ctx context.Context) error {
	tr := t.cfg.Tracer.Start("replica.poll", t.cfg.Site)
	frames := 0
	defer func() {
		root := tr.Root()
		root.SetInt("frames", int64(frames))
		tr.Finish()
	}()
	u := fmt.Sprintf("%s?from=%d&wait=%s", t.cfg.URL, t.next, t.cfg.Wait)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	lp := tr.StartSpan("longpoll")
	lp.SetInt("from", int64(t.next))
	resp, err := t.cfg.Client.Do(req)
	if err != nil {
		lp.SetBool("error", true)
		lp.End()
		return fmt.Errorf("replica: polling leader: %w", err)
	}
	lp.SetInt("status", int64(resp.StatusCode))
	lp.End()
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return fmt.Errorf("%w (requested %d)", errCompacted, t.next)
	default:
		return fmt.Errorf("replica: leader returned %s", resp.Status)
	}
	if v, err := strconv.ParseUint(resp.Header.Get("Iupdater-Leader-Version"), 10, 64); err == nil {
		t.leader.Store(v)
	}
	if id := resp.Header.Get("Iupdater-Trace-Id"); id != "" {
		tr.Root().SetStr("leader_trace_id", id)
	}
	for {
		frame, err := store.ReadFrame(resp.Body)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("replica: reading record stream: %w", err)
		}
		// A poll that carried frames — applied or rejected — is the
		// interesting kind; retain its trace unconditionally.
		tr.Force()
		vsp := tr.StartSpan("validate")
		vsp.SetInt("bytes", int64(len(frame)))
		version, kind, err := t.replay.Apply(frame)
		if err != nil {
			vsp.SetBool("error", true)
			vsp.End()
			return applyError{fmt.Errorf("replica: %w", err)}
		}
		vsp.SetInt("version", int64(version))
		vsp.SetStr("kind", kind.String())
		vsp.End()
		asp := tr.StartSpan("apply")
		asp.SetInt("version", int64(version))
		asp.SetStr("kind", kind.String())
		if err := t.cfg.Apply(version, kind, t.replay.Payload()); err != nil {
			asp.SetBool("error", true)
			asp.End()
			return applyError{fmt.Errorf("replica: applying version %d: %w", version, err)}
		}
		asp.End()
		frames++
		t.next = version + 1
	}
}

// jittered spreads d out by up to 50% so followers retrying against
// the same leader desynchronize.
func jittered(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// sleep waits d or until ctx is done, reporting whether the full wait
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}
