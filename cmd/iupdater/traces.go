package main

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"iupdater/internal/trace"
)

// This file is the serve layer's tracing surface: the per-route
// instrumentation middleware (W3C traceparent in and out, structured
// access log), and the /traces inspection endpoints over the tracer's
// retained rings.

// newServeTracer builds the server's tracer. headEvery retains 1 in N
// request traces up front (0 = slow/forced captures only). Slow
// thresholds are per route family; the records long-poll is exempted
// from slow capture entirely — a caught-up follower legitimately parks
// for its full wait, and those "slow" requests would drown the ring.
func newServeTracer(headEvery int) *trace.Tracer {
	return trace.New(trace.Config{
		HeadEvery: headEvery,
		SlowThreshold: map[string]time.Duration{
			"http.records": -1,              // long-poll: parked-by-design
			"http.update":  2 * time.Second, // reconstruction is legitimately heavy
			"replica.poll": -1,              // follower long-poll, force-retained on frames
		},
	})
}

// routeName derives the trace path key for a mux pattern: the per-site
// prefix is folded away so /locate and /sites/{site}/locate share one
// sampling policy, and the result is namespaced under "http." to keep
// serve-layer traces distinct from the library's ("locate", "update").
func routeName(pattern string) string {
	p := strings.TrimPrefix(pattern, "/sites/{site}")
	if p == "" {
		p = "/site"
	}
	p = strings.NewReplacer("{", "", "}", "").Replace(strings.Trim(p, "/"))
	return "http." + p
}

// statusWriter captures the response status for the access log and the
// root span, passing Flush through for streamed responses.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps one route handler with request tracing and access
// logging. Every request gets a trace rooted at the route's path key
// (retention decided by the tracer's sampling policy): an incoming W3C
// traceparent header is adopted as the remote parent, and the response
// always carries Traceparent and Iupdater-Trace-Id headers so callers
// can fetch the trace from /traces/{id}. The trace rides the request
// context for handlers that add pipeline spans (locate, update).
func (s *server) instrument(method, pattern string, h http.HandlerFunc) http.HandlerFunc {
	name := routeName(pattern)
	return func(w http.ResponseWriter, r *http.Request) {
		tr := s.tracer.Start(name, s.siteName(r))
		if tr == nil && s.access == nil {
			h(w, r)
			return
		}
		start := time.Now()
		if tr != nil {
			if id, parent, sampled, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
				tr.SetRemote(id, parent, sampled)
			}
			w.Header().Set("Traceparent", trace.FormatTraceparent(tr.ID(), tr.RootSpanID(), tr.Sampled()))
			w.Header().Set("Iupdater-Trace-Id", tr.ID().String())
			r = r.WithContext(trace.NewContext(r.Context(), tr))
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		el := time.Since(start)
		if tr != nil {
			root := tr.Root()
			root.SetStr("method", method)
			root.SetInt("status", int64(sw.status))
			root.EndDur(el)
		}
		if s.access != nil {
			id := "-"
			if tr != nil {
				id = tr.ID().String()
			}
			s.access.Printf("method=%s route=%s site=%s status=%d dur=%s trace=%s",
				method, pattern, s.siteName(r), sw.status, el.Round(time.Microsecond), id)
		}
		tr.Finish()
	}
}

// siteName resolves the request's site label for traces and the access
// log without writing an error on unknown names (the handler does
// that): the {site} path value when present, else the default site.
func (s *server) siteName(r *http.Request) string {
	if name := r.PathValue("site"); name != "" {
		return name
	}
	return s.defaultSite()
}

// traceSummaryJSON is one retained trace in the GET /traces listing.
type traceSummaryJSON struct {
	ID         string    `json:"id"`
	Path       string    `json:"path"`
	Site       string    `json:"site,omitempty"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"duration_ms"`
	Slow       bool      `json:"slow,omitempty"`
	Forced     bool      `json:"forced,omitempty"`
	Spans      int       `json:"spans"`
}

type tracesResponse struct {
	// Recent and Slow are the two retention rings, newest first.
	Recent []traceSummaryJSON `json:"recent"`
	Slow   []traceSummaryJSON `json:"slow"`
	// Started counts all traces begun (sampled or not); Retained and
	// SlowRetained count ring publications.
	Started      uint64 `json:"started"`
	Retained     uint64 `json:"retained"`
	SlowRetained uint64 `json:"slow_retained"`
}

func traceSummary(td *trace.TraceData) traceSummaryJSON {
	return traceSummaryJSON{
		ID:         td.ID.String(),
		Path:       td.Path,
		Site:       td.Site,
		Start:      td.Start,
		DurationMs: float64(td.Duration) / float64(time.Millisecond),
		Slow:       td.Slow,
		Forced:     td.Forced,
		Spans:      len(td.Spans),
	}
}

// summaries renders a ring snapshot newest-first.
func summaries(tds []*trace.TraceData) []traceSummaryJSON {
	out := make([]traceSummaryJSON, 0, len(tds))
	for i := len(tds) - 1; i >= 0; i-- {
		out = append(out, traceSummary(tds[i]))
	}
	return out
}

func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	stats := s.tracer.Stats()
	writeJSON(w, http.StatusOK, tracesResponse{
		Recent:       summaries(s.tracer.Recent()),
		Slow:         summaries(s.tracer.SlowTraces()),
		Started:      stats.Started,
		Retained:     stats.Retained,
		SlowRetained: stats.Slow,
	})
}

// spanJSON is one span of a full trace tree, attrs flattened to a map.
type spanJSON struct {
	ID         uint64         `json:"id"`
	ParentID   uint64         `json:"parent_id,omitempty"`
	Name       string         `json:"name"`
	StartMs    float64        `json:"start_ms"`
	DurationMs float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

type traceResponse struct {
	traceSummaryJSON
	// RemoteParent is the remote parent span ID adopted from an incoming
	// traceparent header, 0 for locally rooted traces.
	RemoteParent uint64     `json:"remote_parent,omitempty"`
	Spans        []spanJSON `json:"tree"`
}

func attrValue(a trace.Attr) any {
	switch a.Kind {
	case trace.KindInt:
		return a.Int
	case trace.KindFloat:
		return a.Float
	case trace.KindBool:
		return a.Int != 0
	default:
		return a.Str
	}
}

func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, ok := trace.ParseID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("trace ID %q: want 32 hex digits", r.PathValue("id")))
		return
	}
	td, ok := s.tracer.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("trace %s not retained (evicted or never sampled; GET /traces lists retained traces)", id))
		return
	}
	resp := traceResponse{
		traceSummaryJSON: traceSummary(td),
		RemoteParent:     td.Remote,
		Spans:            make([]spanJSON, len(td.Spans)),
	}
	for i, sp := range td.Spans {
		sj := spanJSON{
			ID:         sp.ID,
			ParentID:   sp.ParentID,
			Name:       sp.Name,
			StartMs:    float64(sp.Start) / float64(time.Millisecond),
			DurationMs: float64(sp.Duration) / float64(time.Millisecond),
		}
		if len(sp.Attrs) > 0 {
			sj.Attrs = make(map[string]any, len(sp.Attrs))
			for _, a := range sp.Attrs {
				sj.Attrs[a.Key] = attrValue(a)
			}
		}
		resp.Spans[i] = sj
	}
	writeJSON(w, http.StatusOK, resp)
}
