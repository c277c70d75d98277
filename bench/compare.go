package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts of one metric on one workload, parent (base) against change
// (head).
const (
	verdictGain       = "gain"
	verdictSame       = "same"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
)

// minPairs and winShare are the evidence a gain needs: at least ten
// alternating base/head pairs, the head winning nine tenths of them.
const (
	minPairs = 10
	winShare = 0.9
)

// verdict judges one metric. base and head hold the runs in the order
// they were made, pair i being base[i] against head[i].
//
//   - regression: the head median is worse than the base median by more
//     than bound (a share of the base median);
//   - unresolved: the base runs' spread (interquartile range over
//     median) exceeds bound, unless every head run beats every base run;
//   - gain: at least minPairs pairs, the head better in at least winShare
//     of them (ties count for neither), and the medians apart by more
//     than the base runs' interquartile range;
//   - same: otherwise.
func verdict(m metricSpec, base, head []float64) string {
	bm, hm := median(base), median(head)
	better := func(h, b float64) bool {
		if m.Better == "higher" {
			return h > b
		}
		return h < b
	}
	worse := (hm - bm) / math.Abs(bm)
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return verdictRegression
	}
	allBetter := len(head) > 0
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	if spread(base) > m.Bound && !allBetter {
		return verdictUnresolved
	}
	pairs := min(len(base), len(head))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	q1, q3 := quartiles(base)
	if pairs >= minPairs && float64(wins) >= winShare*float64(pairs) && better(hm, bm) && math.Abs(hm-bm) > q3-q1 {
		return verdictGain
	}
	return verdictSame
}

// readRuns reads the end-to-end run records of a results file (one JSON
// object per line, as -results writes them), grouped by workload and
// metric in file order.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 || !rec.Result.Correct {
			continue
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Result.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// runCompare applies BENCHMARK.json's bounds to two results files and
// prints one row per workload. It exits 1 when any metric regressed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	basePath := fs.String("base", "", "results file of the parent commit's runs")
	headPath := fs.String("head", "", "results file of the change's runs")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePath == "" || *headPath == "" {
		fmt.Fprintln(stderr, "compare: -base and -head are required")
		return 2
	}
	b, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintln(stderr, "compare:", *specPath+":", err)
		return 2
	}
	base, err := readRuns(*basePath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	head, err := readRuns(*headPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	code := 0
	for _, w := range names {
		bw, hw := base[w], head[w]
		if bw == nil || hw == nil {
			fmt.Fprintf(stdout, "%-14s no correct end-to-end runs on both sides\n", w)
			continue
		}
		row := []string{fmt.Sprintf("%-14s", w)}
		for _, m := range spec.EndToEnd {
			bv, hv := bw[m.Name], hw[m.Name]
			if len(bv) == 0 || len(hv) == 0 {
				row = append(row, m.Name+"=missing")
				continue
			}
			v := verdict(m, bv, hv)
			if v == verdictRegression {
				code = 1
			}
			change := 100 * (median(hv) - median(bv)) / math.Abs(median(bv))
			row = append(row, fmt.Sprintf("%s=%s(%+.1f%%, n=%d/%d)", m.Name, v, change, len(bv), len(hv)))
		}
		fmt.Fprintln(stdout, strings.Join(row, "  "))
	}
	return code
}
