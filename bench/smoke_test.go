package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// TestBenchSmoke runs every workload briefly, end to end and traced, with
// every output check, and requires each run to report exactly the
// metrics BENCHMARK.json names. Runs this short cannot carry every
// percentile, so too-few-sample shortfalls are allowed here.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers for every workload")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var want [2][]string
	for _, m := range spec.EndToEnd {
		want[0] = append(want[0], m.Name)
	}
	for _, m := range spec.PerLayer {
		want[1] = append(want[1], m.Name)
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "iupdater")
	if out, err := exec.Command("go", "build", "-o", bin, "../cmd/iupdater").CombinedOutput(); err != nil {
		t.Fatalf("building iupdater: %v\n%s", err, out)
	}
	cfg := runConfig{bin: bin, work: filepath.Join(dir, "work"), out: filepath.Join(dir, "out"), seed: 2, seconds: 2, setups: 1}
	for _, d := range []string{cfg.work, cfg.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, err := workloadByName(sw.Name)
		if err != nil {
			t.Error(err)
			continue
		}
		for mode := range 2 {
			o, err := runOne(w, mode, cfg)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, mode, err)
			}
			if o.failed > 0 || len(o.problems) > 0 || o.attempted == 0 {
				t.Errorf("%s trace %d: %d of %d failed: %v", w.name, mode, o.failed, o.attempted, o.problems)
			}
			var got []string
			for _, m := range o.metrics {
				got = append(got, m.name)
			}
			sort.Strings(got)
			exp := append([]string(nil), want[mode]...)
			sort.Strings(exp)
			if len(got) != len(exp) {
				t.Errorf("%s trace %d reports %v, BENCHMARK.json names %v", w.name, mode, got, exp)
				continue
			}
			for i := range got {
				if got[i] != exp[i] {
					t.Errorf("%s trace %d reports %v, BENCHMARK.json names %v", w.name, mode, got, exp)
					break
				}
			}
		}
	}
}
