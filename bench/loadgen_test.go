package main

import (
	"math"
	"testing"
	"time"
)

func TestDueOffsetTicks(t *testing.T) {
	// At 4000/s, four requests fall due on each 1 ms tick.
	for i, want := range []time.Duration{0, 0, 0, 0, time.Millisecond, time.Millisecond} {
		if got := dueOffset(i, 4000); got != want {
			t.Errorf("dueOffset(%d, 4000) = %v, want %v", i, got, want)
		}
	}
	// Below 1000/s requests skip ticks: 300/s is due at 0, 3, 6, 10 ms.
	for i, want := range []int{0, 3, 6, 10} {
		if got := dueOffset(i, 300); got != time.Duration(want)*time.Millisecond {
			t.Errorf("dueOffset(%d, 300) = %v, want %d ms", i, got, want)
		}
	}
}

// TestStepAccountsLagAndQueueing runs a step whose requests take no
// time, so the worker is early for most of them: each request it sleeps
// for gives one generator-lag sample (one that a late wakeup left already
// due is sent at once and gives none), and every latency from the due
// time is at least the service time.
func TestStepAccountsLagAndQueueing(t *testing.T) {
	s := newStep(1000, time.Now().Add(5*time.Millisecond), 50*time.Millisecond)
	res := s.run([]*httpConn{{}}, func(*httpConn, int) error { return nil })
	if res.Sent != 50 || res.Unsent != 0 || res.Backlog || res.Failed != 0 {
		t.Fatalf("got %+v; want 50 sent, none unsent, no backlog", res)
	}
	if n := len(res.lags); n < res.Sent/2 || n > res.Sent {
		t.Errorf("%d lag samples for %d requests; want at most one per request, from most of them", n, res.Sent)
	}
	for _, l := range res.lags {
		if l < 0 {
			t.Errorf("negative generator lag %g ms", l)
		}
	}
	for i := range s.lat {
		if s.lat[i] < s.svc[i] {
			t.Fatalf("request %d: latency %g ms below its service time %g ms", i, s.lat[i], s.svc[i])
		}
	}
}

// TestStepDetectsBacklog serves a 1000/s step with 5 ms requests on one
// connection: requests pile up, and those still unsent 100 ms after the
// step's end are abandoned and mark the step backlogged.
func TestStepDetectsBacklog(t *testing.T) {
	s := newStep(1000, time.Now(), 100*time.Millisecond)
	res := s.run([]*httpConn{{}}, func(*httpConn, int) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if !res.Backlog || res.Unsent == 0 {
		t.Fatalf("got %+v; want a backlogged step with unsent requests", res)
	}
	if res.Sent+res.Unsent != 100 {
		t.Errorf("sent %d + unsent %d, want 100", res.Sent, res.Unsent)
	}
	// Queued requests wait: the latency tail far exceeds the 5 ms service.
	if res.P50 < 20 {
		t.Errorf("p50 %g ms; queueing behind the slow connection should count", res.P50)
	}
	if res.meets(1000) {
		t.Error("a backlogged step met the limit")
	}
}

func TestStepMeetsLimit(t *testing.T) {
	ok := stepResult{TailP: 99, Tail: 1.5, Sent: 1000, LagP99: 0.1}
	if !ok.meets(2) {
		t.Error("p99 1.5 ms under a 2 ms limit should pass")
	}
	for name, r := range map[string]stepResult{
		"tail over limit": {TailP: 99, Tail: 2.5, Sent: 1000},
		"failures":        {TailP: 99, Tail: 1, Sent: 1000, Failed: 2},
		"generator late":  {TailP: 99, Tail: 1, Sent: 1000, LagP99: 2.5},
		"no tail":         {Tail: 1, Sent: 10},
	} {
		if r.meets(2) {
			t.Errorf("%s: step met the limit", name)
		}
	}
}

// capacity returns a fake step runner that passes below c and records
// the rates it was asked for.
func capacity(c float64, ran *[]float64, fails ...float64) func(float64) bool {
	return func(rate float64) bool {
		*ran = append(*ran, rate)
		for _, f := range fails {
			if rate == f {
				return false
			}
		}
		return rate < c
	}
}

func TestClimbBisectsAboveHighestPassingRung(t *testing.T) {
	ladder := []float64{2000, 4000, 8000, 12000}
	for _, tc := range []struct {
		name  string
		cap   float64
		fails []float64
		want  float64
		ran   []float64
	}{
		{"between rungs", 10600, nil, 10500, []float64{2000, 4000, 8000, 12000, 10000, 11000, 10500}},
		{"transient failure below", 10600, []float64{2000}, 10500, []float64{2000, 4000, 8000, 12000, 10000, 11000, 10500}},
		{"above the top rung", 1e9, nil, 17250, []float64{2000, 4000, 8000, 12000, 15000, 16500, 17250}},
		{"below the lowest rung", 900, nil, 750, []float64{2000, 4000, 8000, 12000, 1000, 500, 750}},
	} {
		var ran []float64
		got := climb(ladder, 3, capacity(tc.cap, &ran, tc.fails...))
		if got != tc.want {
			t.Errorf("%s: climb = %g, want %g", tc.name, got, tc.want)
		}
		if len(ran) != len(tc.ran) {
			t.Errorf("%s: ran %v, want %v", tc.name, ran, tc.ran)
			continue
		}
		for i := range ran {
			if math.Abs(ran[i]-tc.ran[i]) > 1e-9 {
				t.Errorf("%s: ran %v, want %v", tc.name, ran, tc.ran)
				break
			}
		}
	}
}

func TestLeadingVersion(t *testing.T) {
	for body, want := range map[string]uint64{
		`{"version":1,"position":{"x":1,"y":2}}`: 1,
		`{"version":417,"references":[1,2]}`:     417,
	} {
		if v, ok := leadingVersion([]byte(body)); !ok || v != want {
			t.Errorf("leadingVersion(%s) = %d, %v; want %d", body, v, ok, want)
		}
	}
	for _, body := range []string{`{"error":"x"}`, `{"version":}`, ``} {
		if _, ok := leadingVersion([]byte(body)); ok {
			t.Errorf("leadingVersion(%q) parsed a version", body)
		}
	}
}
