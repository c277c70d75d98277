package obs

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter reads %d", c.Value())
	}
	for i := 0; i < 42; i++ {
		c.Inc()
	}
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram(1, 2, 5)
	for _, v := range []float64{0.5, 1, 1.5, 2, 4, 5, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Bounds are inclusive upper bounds: 0.5,1 | 1.5,2 | 4,5 | 100.
	want := []uint64{2, 2, 2, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (%+v)", i, s.Counts[i], w, s)
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if math.Abs(s.Sum-114) > 1e-9 {
		t.Errorf("sum = %v, want 114", s.Sum)
	}
}

func TestHistogramObserveAllocFree(t *testing.T) {
	h := NewHistogram(DefLatencyBuckets...)
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(3e-6) })
	if allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f/op, want 0", allocs)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(1, 10)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 20))
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 4000 {
		t.Fatalf("count = %d, want 4000", s.Count)
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

func TestWriterExposition(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	w.Family("demo_total", "counter", `a "quoted" help with \ and
newline`)
	w.Sample("demo_total", 3, Label{Name: "site", Value: `a"b\c`})
	h := NewHistogram(0.1, 1)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	w.Family("demo_seconds", "histogram", "latency")
	w.Histogram("demo_seconds", h.Snapshot(), Label{Name: "site", Value: "x"})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "# HELP demo_total a \"quoted\" help with \\\\ and\\nnewline\n" +
		"# TYPE demo_total counter\n" +
		"demo_total{site=\"a\\\"b\\\\c\"} 3\n" +
		"# HELP demo_seconds latency\n" +
		"# TYPE demo_seconds histogram\n" +
		"demo_seconds_bucket{site=\"x\",le=\"0.1\"} 1\n" +
		"demo_seconds_bucket{site=\"x\",le=\"1\"} 2\n" +
		"demo_seconds_bucket{site=\"x\",le=\"+Inf\"} 3\n" +
		"demo_seconds_sum{site=\"x\"} 2.55\n" +
		"demo_seconds_count{site=\"x\"} 3\n"
	if got != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriterSpecialValues(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	w.Sample("g", math.Inf(1))
	w.Sample("g", math.Inf(-1))
	w.Sample("g", math.NaN())
	got := sb.String()
	if got != "g +Inf\ng -Inf\ng NaN\n" {
		t.Fatalf("special values: %q", got)
	}
}

// TestWriterLabelValueEscaping pins the exposition escaping of the
// three special characters inside a label value: newline becomes \n,
// a double quote \" and a backslash \\ — each must survive a
// Prometheus parse back to the original value.
func TestWriterLabelValueEscaping(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	w.Sample("m", 1, Label{Name: "v", Value: "a\nb\"c\\d"})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	want := "m{v=\"a\\nb\\\"c\\\\d\"} 1\n"
	if got := sb.String(); got != want {
		t.Fatalf("label escaping: got %q, want %q", got, want)
	}
}

// TestWriterInfBucket pins the overflow-bucket rendering: an observed
// +Inf lands only in the le="+Inf" bucket (the finite buckets stay
// put), and the sum is spelled +Inf — not a parse-breaking "Inf" or
// "inf".
func TestWriterInfBucket(t *testing.T) {
	h := NewHistogram(1)
	h.Observe(1)
	h.Observe(math.Inf(1))
	var sb strings.Builder
	w := NewWriter(&sb)
	w.Histogram("h", h.Snapshot())
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	want := "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum +Inf\nh_count 2\n"
	if got := sb.String(); got != want {
		t.Fatalf("+Inf bucket rendering: got %q, want %q", got, want)
	}
}

// TestHistogramScrapeWhileObserve renders snapshots concurrently with
// a storm of observations — the /metrics scrape path racing the hot
// path. Run under -race this proves the snapshot copy is properly
// synchronized; the invariant check proves every snapshot is
// internally consistent (bucket total == count) even mid-storm.
func TestHistogramScrapeWhileObserve(t *testing.T) {
	h := NewHistogram(DefLatencyBuckets...)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Observe(float64(i%100) * 1e-4)
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		var total uint64
		for _, c := range s.Counts {
			total += c
		}
		if total != s.Count {
			t.Errorf("scrape %d: bucket total %d != count %d", i, total, s.Count)
		}
		w := NewWriter(io.Discard)
		w.Family("h_seconds", "histogram", "concurrent scrape")
		w.Histogram("h_seconds", s, Label{Name: "site", Value: "x"})
		if err := w.Err(); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}
