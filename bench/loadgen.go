package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Load generation is open-loop from this one process: requests fall due
// on a fixed schedule whether or not the server keeps up, at most one
// request is in flight per connection, and a request's latency is timed
// from when it was due, so time spent queued behind a slow response
// counts against the server.
//
// Requests fall due in 1 ms ticks: at tick k (k ms after a step starts)
// every request i with floor(i*1000/rate) == k becomes due. A worker that
// is ahead of the schedule sleeps to its request's tick with nanosleep(2)
// instead of time.Sleep: the Go timer rounds sleeps up to whole
// milliseconds on the 2-CPU Linux microVM the benchmark was built on (a
// 200 µs sleep returns after ~1.07 ms), which would put up to 1 ms of
// generator lateness into every latency.
// nanosleep wakes within ~60 µs (the kernel's default timer slack), and
// the tick keeps wakeups at or below 1000 per second per worker however
// high the rate.

const (
	// backlogGrace is how long after a step's end a request may still be
	// unsent before the step counts as backlogged: the server did not keep
	// up with the rate.
	backlogGrace = 100 * time.Millisecond
	// maxFailFrac, maxLagMs: a step meets its limit only if at most this
	// share of its requests failed and the generator itself ran at most
	// this late (p99), so a slow generator cannot pass for a slow server.
	maxFailFrac = 0.001
	maxLagMs    = 2.0
)

// dueOffset is when request i of a step at rate requests per second falls
// due, relative to the step start: on the 1 ms tick floor(i*1000/rate).
func dueOffset(i int, rate float64) time.Duration {
	return time.Duration(math.Floor(float64(i)*1000/rate)) * time.Millisecond
}

// coarseSlack is how much of a long wait is left to nanosleep after a
// time.Sleep: more than the Go timer's rounding (~1.07 ms on that microVM).
const coarseSlack = 1500 * time.Microsecond

// sleepUntil blocks until t. A long wait first sleeps on the Go timer,
// which frees the worker's scheduler slot (a thread in nanosleep(2)
// holds it), and nanosleeps only the last stretch.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - coarseSlack; d > 0 {
		time.Sleep(d)
	}
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// httpConn is one keep-alive HTTP/1.1 connection driven with pre-built
// request bytes. The generator skips net/http's client, whose two
// goroutines and channel handoffs per connection would take CPU from the
// server under test on a 2-CPU host; responses are still parsed by
// net/http.ReadResponse. Not safe for concurrent use.
type httpConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

// do sends one request and reads the whole response. The returned body
// is only valid until the next call. A transport error closes the
// connection; the next call dials again.
func (h *httpConn) do(req []byte) (int, []byte, error) {
	if h.c == nil {
		c, err := net.Dial("tcp", h.addr)
		if err != nil {
			return 0, nil, err
		}
		h.c, h.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	if _, err := h.c.Write(req); err != nil {
		h.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		h.close()
		return 0, nil, err
	}
	h.body.Reset()
	_, err = h.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		h.close()
	}
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, h.body.Bytes(), nil
}

func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close()
		h.c, h.br = nil, nil
	}
}

// get issues a GET and returns a copy of a 200 response's body.
func (h *httpConn) get(path string) ([]byte, error) {
	status, body, err := h.do(buildRequest("GET", path, nil))
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, status, clip(body))
	}
	return append([]byte(nil), body...), nil
}

// buildRequest serializes one HTTP/1.1 request.
func buildRequest(method, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: bench\r\n", method, path)
	if body != nil {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// clip shortens a response body for an error message.
func clip(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// issueFunc sends request i of a step on c and checks the response,
// returning a non-nil error for a failed request (transport error, non-2xx
// status or a failed output check).
type issueFunc func(c *httpConn, i int) error

// step is one open-loop load step: n requests at rate per second, due in
// 1 ms ticks from start.
type step struct {
	rate    float64
	start   time.Time
	n       int
	abandon time.Time

	next    atomic.Int64
	backlog atomic.Bool

	// Per request, written only by the worker that claimed it: latency
	// from the due time and from the send (ms), NaN while unsent, and the
	// failure if any.
	lat  []float64
	svc  []float64
	errs []error
}

func newStep(rate float64, start time.Time, dur time.Duration) *step {
	n := int(rate * dur.Seconds())
	s := &step{
		rate:    rate,
		start:   start,
		n:       n,
		abandon: start.Add(dur + backlogGrace),
		lat:     make([]float64, n),
		svc:     make([]float64, n),
		errs:    make([]error, n),
	}
	for i := range s.lat {
		s.lat[i], s.svc[i] = math.NaN(), math.NaN()
	}
	return s
}

// work claims requests in order and sends each when it falls due until
// the step is exhausted or backlogged. lags receives how late each wakeup
// from a sleep ran (ms): the generator's own lateness, as opposed to the
// queueing of a request that was due while the worker was busy.
func (s *step) work(c *httpConn, issue issueFunc, lags *[]float64) {
	for {
		i := int(s.next.Add(1) - 1)
		if i >= s.n {
			return
		}
		due := s.start.Add(dueOffset(i, s.rate))
		if now := time.Now(); now.Before(due) {
			sleepUntil(due)
			*lags = append(*lags, ms(time.Since(due)))
		} else if now.After(s.abandon) {
			s.backlog.Store(true)
			return
		}
		sent := time.Now()
		err := issue(c, i)
		done := time.Now()
		s.lat[i], s.svc[i], s.errs[i] = ms(done.Sub(due)), ms(done.Sub(sent)), err
	}
}

// run drives the step over conns, one worker per connection, and waits
// for both to finish.
func (s *step) run(conns []*httpConn, issue issueFunc) stepResult {
	lags := make([][]float64, len(conns))
	var wg sync.WaitGroup
	for k, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work(c, issue, &lags[k])
		}()
	}
	wg.Wait()
	var all []float64
	for _, l := range lags {
		all = append(all, l...)
	}
	return s.result(all)
}

// stepResult summarizes one step.
type stepResult struct {
	// Kind is "locate" for a ladder step, "update" for the update stream.
	Kind    string  `json:"kind"`
	Rate    float64 `json:"rate"`
	Sent    int     `json:"sent"`
	Failed  int     `json:"failed"`
	Unsent  int     `json:"unsent"`
	Backlog bool    `json:"backlog"`
	P50     float64 `json:"p50_ms"`
	// TailP is the highest percentile the sample supports (0 if none);
	// Tail is the latency there.
	TailP   float64   `json:"tail_p"`
	Tail    float64   `json:"tail_ms"`
	LagP99  float64   `json:"gen_lag_p99_ms"`
	SvcP50  float64   `json:"service_p50_ms"`
	SvcP99  float64   `json:"service_p99_ms"`
	Pass    bool      `json:"pass"`
	latency []float64 // sorted
	service []float64
	lags    []float64
	errs    []error
}

func (s *step) result(lags []float64) stepResult {
	r := stepResult{Rate: s.rate, Backlog: s.backlog.Load(), lags: lags}
	for i := 0; i < s.n; i++ {
		if math.IsNaN(s.lat[i]) {
			r.Unsent++
			continue
		}
		r.Sent++
		r.latency = append(r.latency, s.lat[i])
		r.service = append(r.service, s.svc[i])
		if s.errs[i] != nil {
			r.Failed++
			r.errs = append(r.errs, s.errs[i])
		}
	}
	sort.Float64s(r.latency)
	r.P50 = percentile(r.latency, 50)
	if p, ok := highestTail(len(r.latency)); ok {
		r.TailP, r.Tail = min(p, 99), percentile(r.latency, min(p, 99))
	}
	sort.Float64s(r.service)
	r.SvcP50 = percentile(r.service, 50)
	r.SvcP99 = percentile(r.service, 99)
	sort.Float64s(lags)
	if p, ok := highestTail(len(lags)); ok {
		r.LagP99 = percentile(lags, min(p, 99))
	}
	return r
}

// meets reports whether the step met the latency limit at its rate: the
// tail (p99, or the highest percentile the sample supports) within
// limit, at most maxFailFrac failed, a generator lag p99 of at most
// maxLagMs and no backlog. A step with no supported tail fails.
func (r *stepResult) meets(limitMs float64) bool {
	return r.TailP > 0 && r.Tail <= limitMs &&
		float64(r.Failed) <= maxFailFrac*float64(r.Sent) &&
		r.LagP99 <= maxLagMs && !r.Backlog
}

// climb finds the highest rate that meets the limit. It runs every ladder
// rate in ascending order — all of them, so a run always spends the same
// time — then bisects bisect times between the highest rung that passed
// and the next rung above it (1.5× the top rung when the top passed). A
// failed rung below a passing one is a transient stall, not the rate
// limit, so it does not cap the result. run executes one step at the
// given rate and reports whether it met the limit.
func climb(ladder []float64, bisect int, run func(rate float64) bool) float64 {
	pass := make([]bool, len(ladder))
	for i, rate := range ladder {
		pass[i] = run(rate)
	}
	lo, hi := 0.0, ladder[0]
	for i := len(ladder) - 1; i >= 0; i-- {
		if pass[i] {
			lo, hi = ladder[i], 1.5*ladder[i]
			if i+1 < len(ladder) {
				hi = ladder[i+1]
			}
			break
		}
	}
	for i := 0; i < bisect; i++ {
		mid := (lo + hi) / 2
		if run(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
