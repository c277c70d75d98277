// Command bench is the repository's benchmark. It drives `iupdater serve`
// (and an `iupdater replicate` follower) as child processes over loopback
// HTTP with an open-loop load generator, checks every answer against an
// in-process replay of the same simulated world, and reports end-to-end
// metrics; with -trace 1 it replays the same requests in process against
// the library objects serve builds and reports per-layer metrics from
// spans it records around each layer's calls. See README.md.
//
// It is normally run through run.sh, which builds both binaries:
//
//	bash bench/run.sh --workload query-single --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh compare -base base.jsonl -head head.jsonl
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
)

// setupRepeats is how many times each run sets the servers up; setup_s
// is the median.
const setupRepeats = 7

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bin := fs.String("bin", "", "iupdater binary to benchmark")
	serverCPUs := fs.String("server-cpus", "", "CPU list the servers are pinned to with taskset (empty: no pinning)")
	work := fs.String("work", "", "scratch directory for the servers' data")
	out := fs.String("out", "", "directory for traces and per-run results")
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "seconds of measurement per run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced in-process run")
	results := fs.String("results", "", "append each run's result as one JSON line to this file (input to compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 && fs.Arg(0) == "compare" {
		return runCompare(fs.Args()[1:], stdout, stderr)
	}
	if *bin == "" || *work == "" || *out == "" || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "bench: -bin, -work and -out are required, -seconds must be positive and -trace 0 or 1")
		return 2
	}
	// The generator is one process with two scheduler slots, so one
	// worker finishing a nanosleep never waits for the other's slot.
	runtime.GOMAXPROCS(2)
	cfg := runConfig{
		bin:        *bin,
		serverCPUs: *serverCPUs,
		work:       filepath.Join(*work, strconv.Itoa(os.Getpid())),
		out:        *out,
		seed:       *seed,
		seconds:    *seconds,
		setups:     setupRepeats,
	}
	defer os.RemoveAll(cfg.work)
	for _, dir := range []string{cfg.work, cfg.out} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}

	var selected []workload
	if *name == "all" {
		selected = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		selected = []workload{w}
	}
	modes := []int{*traced}
	if *name == "all" {
		modes = []int{0, 1}
	}
	total := resultJSON{Correct: true, Metrics: map[string]metricJSON{}}
	for _, w := range selected {
		for _, mode := range modes {
			o, err := runOne(w, mode, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			res := o.result()
			report(stdout, stderr, w, mode, o)
			rec := runRecord{Workload: w.name, Seed: cfg.seed, Trace: mode, Result: res, Steps: o.steps}
			if err := writeRecord(cfg, *results, rec); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			if len(selected) == 1 {
				total = res
				continue
			}
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for k, v := range res.Metrics {
				total.Metrics[w.name+"."+k] = v
			}
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

func runOne(w workload, mode int, cfg runConfig) (*outcome, error) {
	if mode == 1 {
		return runTraced(w, cfg)
	}
	return runE2E(w, cfg)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the object the benchmark prints as its last line.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func (o *outcome) result() resultJSON {
	res := resultJSON{
		Correct:   o.correct(),
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   make(map[string]metricJSON, len(o.metrics)),
	}
	for _, m := range o.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Only an incorrect run carries one (a shortfall); JSON has no
			// NaN.
			res.Correct = false
			v = 0
		}
		res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	return res
}

// runRecord is one run as kept on disk and read by compare.
type runRecord struct {
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Trace    int          `json:"trace"`
	Result   resultJSON   `json:"result"`
	Steps    []stepResult `json:"steps,omitempty"`
}

// writeRecord writes the run to <out>/<workload>.trace<N>.json and, when
// results is set, appends it to that file as one JSON line.
func writeRecord(cfg runConfig, results string, rec runRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s.trace%d.json", rec.Workload, rec.Trace))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if results == "" {
		return nil
	}
	f, err := os.OpenFile(results, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints every metric by name with its unit, then the ladder and
// any failed check.
func report(stdout, stderr io.Writer, w workload, mode int, o *outcome) {
	kind := "end-to-end"
	if mode == 1 {
		kind = "per-layer"
	}
	fmt.Fprintf(stdout, "# %s (%s): %d attempted, %d failed\n", w.name, kind, o.attempted, o.failed)
	for _, m := range o.metrics {
		fmt.Fprintf(stdout, "%-16s %-30s %14.6g %s\n", w.name, m.name, m.value, m.unit)
	}
	for _, line := range stepSummary(o.steps) {
		fmt.Fprintf(stderr, "%s: %s\n", w.name, line)
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "%s: check failed: %s\n", w.name, p)
	}
	for _, s := range o.shortfalls {
		fmt.Fprintf(stderr, "%s: too few samples: %s\n", w.name, s)
	}
}
