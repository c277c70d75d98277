package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "locate_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "locate_max_rps", Better: "higher", Bound: 0.1}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		m          metricSpec
		base, head []float64
		want       string
	}{
		{"unchanged", lower, base, base, verdictSame},
		{"regression beyond bound", lower, base, scale(base, 1.2), verdictRegression},
		{"within bound", lower, base, scale(base, 1.05), verdictSame},
		{"gain", lower, base, scale(base, 0.9), verdictGain},
		{"higher is better", higher, base, scale(base, 0.8), verdictRegression},
		{"higher gain", higher, base, scale(base, 1.1), verdictGain},
		{"too few pairs", lower, base[:9], scale(base[:9], 0.9), verdictSame},
		{"wide base spread", lower, []float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}, []float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}, verdictUnresolved},
		{"wide spread but every head run better", lower, []float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}, scale([]float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}, 0.2), verdictGain},
	} {
		if got := verdict(tc.m, tc.base, tc.head); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestVerdictNeedsNineOfTenWins: a head that wins 8 of 10 pairs is not a
// gain even when its median is better by more than the base spread.
func TestVerdictNeedsNineOfTenWins(t *testing.T) {
	m := metricSpec{Better: "lower", Bound: 0.2}
	base := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	head := []float64{9, 9, 9, 9, 9, 9, 9, 9, 11, 11}
	if got := verdict(m, base, head); got != verdictSame {
		t.Errorf("8/10 wins: verdict = %s, want %s", got, verdictSame)
	}
	head[8] = 9
	if got := verdict(m, base, head); got != verdictGain {
		t.Errorf("9/10 wins: verdict = %s, want %s", got, verdictGain)
	}
	// Ties count for neither side.
	head[8] = 10
	if got := verdict(m, base, head); got != verdictSame {
		t.Errorf("8 wins and a tie: verdict = %s, want %s", got, verdictSame)
	}
}

func TestCompareReadsResultsAndBounds(t *testing.T) {
	dir := t.TempDir()
	spec := `{"workloads":[{"name":"w1","why":"x"}],"end_to_end":[{"name":"lat","unit":"ms","better":"lower","bound":0.1}]}`
	write := func(name string, vals ...float64) string {
		var b bytes.Buffer
		for _, v := range vals {
			rec := runRecord{Workload: "w1", Result: resultJSON{Correct: true, Metrics: map[string]metricJSON{"lat": {Value: v, Unit: "ms"}}}}
			line, _ := json.Marshal(rec)
			b.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("base.jsonl", 1, 1, 1, 1)
	head := write("head.jsonl", 1.5, 1.5, 1.5, 1.5)
	var out, errb bytes.Buffer
	if code := runCompare([]string{"-base", base, "-head", head, "-spec", specPath}, &out, &errb); code != 1 {
		t.Fatalf("exit %d (stderr %q), want 1 for a regression", code, errb.String())
	}
	if !strings.Contains(out.String(), "lat=regression") {
		t.Errorf("output %q lacks the regression", out.String())
	}
}
