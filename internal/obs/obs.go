// Package obs is a zero-dependency observability toolkit: lock-free
// counter and fixed-bucket histogram primitives cheap enough to
// live on query hot paths (atomic operations only, 0 allocations per
// Observe), plus a hand-rolled Prometheus text-exposition writer
// (version 0.0.4) so a server can expose them on a /metrics route
// without importing a client library.
//
// The primitives are deliberately not a registry: instrumented
// components own their metrics and expose them through their public
// API, and the serving layer assembles one exposition per scrape with a
// Writer. That keeps metric *identity* (names, labels) a serving-layer
// concern — the same Histogram can be labeled per-site by whatever is
// scraping it.
package obs

import (
	"io"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is
// ready; all methods are lock-free and safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// DefLatencyBuckets are the default histogram bounds for request
// latencies in seconds: 1 µs to 500 ms, roughly logarithmic. The locate
// hot path sits in the single-digit-microsecond decade; the upper
// buckets catch scheduling stalls and cold-cache outliers.
var DefLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 5e-3, 2.5e-2, 1e-1, 5e-1,
}

// Histogram is a lock-free fixed-bucket histogram. Bounds are upper
// bucket boundaries (inclusive, ascending); an implicit +Inf bucket
// catches the overflow. Observe is wait-free apart from the sum's CAS
// loop and performs no allocation, so it can sit directly on a query
// hot path.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sumBits atomic.Uint64
}

// NewHistogram builds a histogram with the given upper bounds, sorting
// and copying them. At least one bound is required.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: NewHistogram needs at least one bucket bound")
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. 0 allocations; safe for concurrent use.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a Histogram, consumed by
// Writer.Histogram. Counts are per-bucket (not cumulative) with the
// +Inf overflow bucket last; Count is the total number of observations
// (always the sum of Counts, so the exposition's +Inf bucket and _count
// agree even if observations land mid-snapshot).
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// Label is one name="value" pair on a sample.
type Label struct{ Name, Value string }

// Writer emits Prometheus text exposition format (version 0.0.4). Call
// Family once per metric family, then one Sample/Histogram call per
// labeled series; the writer remembers nothing across families. Errors
// from the underlying io.Writer are sticky and reported by Err.
type Writer struct {
	w   io.Writer
	buf []byte
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w, buf: make([]byte, 0, 256)} }

// Err returns the first error the underlying writer produced, if any.
func (w *Writer) Err() error { return w.err }

func (w *Writer) flush() {
	if w.err == nil {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// Family writes the # HELP and # TYPE lines for one metric family. typ
// is one of "counter", "gauge", "histogram", "summary" or "untyped".
func (w *Writer) Family(name, typ, help string) {
	w.buf = append(w.buf, "# HELP "...)
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, ' ')
	w.buf = appendEscaped(w.buf, help, false)
	w.buf = append(w.buf, "\n# TYPE "...)
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, ' ')
	w.buf = append(w.buf, typ...)
	w.buf = append(w.buf, '\n')
	w.flush()
}

// Sample writes one sample line: name{labels...} value.
func (w *Writer) Sample(name string, value float64, labels ...Label) {
	w.buf = appendSeries(w.buf, name, labels, nil)
	w.buf = append(w.buf, ' ')
	w.buf = appendValue(w.buf, value)
	w.buf = append(w.buf, '\n')
	w.flush()
}

// Histogram writes one histogram series: the cumulative _bucket lines
// (including le="+Inf"), then _sum and _count, all carrying labels.
func (w *Writer) Histogram(name string, s HistogramSnapshot, labels ...Label) {
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Bounds) {
			le = strconv.FormatFloat(s.Bounds[i], 'g', -1, 64)
		}
		w.buf = appendSeries(w.buf, name+"_bucket", labels, &Label{Name: "le", Value: le})
		w.buf = append(w.buf, ' ')
		w.buf = strconv.AppendUint(w.buf, cum, 10)
		w.buf = append(w.buf, '\n')
	}
	w.buf = appendSeries(w.buf, name+"_sum", labels, nil)
	w.buf = append(w.buf, ' ')
	w.buf = appendValue(w.buf, s.Sum)
	w.buf = append(w.buf, '\n')
	w.buf = appendSeries(w.buf, name+"_count", labels, nil)
	w.buf = append(w.buf, ' ')
	w.buf = strconv.AppendUint(w.buf, s.Count, 10)
	w.buf = append(w.buf, '\n')
	w.flush()
}

// appendSeries appends name{l1="v1",...} with proper label-value
// escaping. extra, when non-nil, is appended after labels (the
// histogram "le" label).
func appendSeries(buf []byte, name string, labels []Label, extra *Label) []byte {
	buf = append(buf, name...)
	if len(labels) == 0 && extra == nil {
		return buf
	}
	buf = append(buf, '{')
	for i, l := range labels {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendLabel(buf, l)
	}
	if extra != nil {
		if len(labels) > 0 {
			buf = append(buf, ',')
		}
		buf = appendLabel(buf, *extra)
	}
	return append(buf, '}')
}

func appendLabel(buf []byte, l Label) []byte {
	buf = append(buf, l.Name...)
	buf = append(buf, '=', '"')
	buf = appendEscaped(buf, l.Value, true)
	return append(buf, '"')
}

// appendEscaped escapes backslash and newline (HELP text), plus double
// quotes inside label values.
func appendEscaped(buf []byte, s string, label bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '"':
			if label {
				buf = append(buf, '\\', '"')
			} else {
				buf = append(buf, c)
			}
		default:
			buf = append(buf, c)
		}
	}
	return buf
}

// appendValue formats a float the way Prometheus expects: shortest
// round-trip decimal, with +Inf/-Inf/NaN spelled out.
func appendValue(buf []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(buf, "+Inf"...)
	case math.IsInf(v, -1):
		return append(buf, "-Inf"...)
	case math.IsNaN(v):
		return append(buf, "NaN"...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}
