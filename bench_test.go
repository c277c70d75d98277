package iupdater_test

// One benchmark per table and figure of the paper's evaluation section,
// plus ablations of the design choices called out in DESIGN.md. Each
// benchmark runs the corresponding experiment driver end to end and
// reports the figure's headline metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates (a single-seed pass of) the entire evaluation. cmd/figgen
// produces the full multi-seed report.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"iupdater"
	"iupdater/internal/core"
	"iupdater/internal/eval"
	"iupdater/internal/loc"
	"iupdater/internal/mat"
	"iupdater/internal/testbed"
	"iupdater/internal/trace"
)

func benchSeeds() []uint64 { return []uint64{3} }

func BenchmarkFig01ShortTermVariation(b *testing.B) {
	var swing float64
	for i := 0; i < b.N; i++ {
		r := eval.Fig01ShortTermVariation(testbed.Office(), 11)
		swing = r.SwingDB
	}
	b.ReportMetric(swing, "swing_dB")
}

func BenchmarkFig02LongTermShift(b *testing.B) {
	var s5, s45 float64
	for i := 0; i < b.N; i++ {
		r := eval.Fig02LongTermShift(testbed.Office(), 7)
		s5, s45 = r.Shift5DB, r.Shift45DB
	}
	b.ReportMetric(s5, "shift5d_dB")
	b.ReportMetric(s45, "shift45d_dB")
}

func BenchmarkFig05SingularValues(b *testing.B) {
	var lead float64
	for i := 0; i < b.N; i++ {
		r := eval.Fig05SingularValues(testbed.Office(), 3)
		lead = r.LeadingShare
	}
	b.ReportMetric(lead, "leading_share")
}

func BenchmarkFig06DifferenceStability(b *testing.B) {
	var raw, nd float64
	for i := 0; i < b.N; i++ {
		r := eval.Fig06DifferenceStability(testbed.Office(), 13)
		raw, nd = r.RawStd, r.NeighborDiffStd
	}
	b.ReportMetric(raw, "raw_std_dB")
	b.ReportMetric(nd, "neighbor_diff_std_dB")
}

func BenchmarkFig08NLCCDF(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		frac = eval.Fig08NLCCDF(testbed.Office(), 3).FractionBelow02
	}
	b.ReportMetric(frac, "frac_below_0.2")
}

func BenchmarkFig09ALSCDF(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		frac = eval.Fig09ALSCDF(testbed.Office(), 3).FractionBelow04
	}
	b.ReportMetric(frac, "frac_below_0.4")
}

func BenchmarkFig14ReferenceCount(b *testing.B) {
	var mic, random float64
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig14ReferenceCount(testbed.Office(), benchSeeds())
		if err != nil {
			b.Fatal(err)
		}
		mic = r.CDFs[0].Median()
		random = r.CDFs[3].Median()
	}
	b.ReportMetric(mic, "mic8_median_dB")
	b.ReportMetric(random, "random11_median_dB")
}

func BenchmarkFig15ReferenceCountOverTime(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig15ReferenceCountOverTime(testbed.Office(), benchSeeds())
		if err != nil {
			b.Fatal(err)
		}
		last = r.MeanDB[0][len(r.MeanDB[0])-1]
	}
	b.ReportMetric(last, "mic8_3mo_mean_dB")
}

func BenchmarkFig16ConstraintAblation(b *testing.B) {
	var rsvd, c1, c12 float64
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig16ConstraintAblation(testbed.Office(), benchSeeds())
		if err != nil {
			b.Fatal(err)
		}
		rsvd, c1, c12 = r.RSVD[3], r.C1[3], r.C1C2[3]
	}
	b.ReportMetric(rsvd, "rsvd_45d_dB")
	b.ReportMetric(c1, "c1_45d_dB")
	b.ReportMetric(c12, "c1c2_45d_dB")
}

func BenchmarkFig17VariationRobustness(b *testing.B) {
	var d80, meas float64
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig17VariationRobustness(testbed.Office(), benchSeeds())
		if err != nil {
			b.Fatal(err)
		}
		d80 = eval.Mean(r.Data80C2)
		meas = eval.Mean(r.Measured)
	}
	b.ReportMetric(d80, "data80_c2_m")
	b.ReportMetric(meas, "measured_m")
}

func BenchmarkFig18ReconstructionCDF(b *testing.B) {
	var m3d, m3mo float64
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig18ReconstructionCDF(testbed.Office(), benchSeeds())
		if err != nil {
			b.Fatal(err)
		}
		m3d = r.CDFs[0].Median()
		m3mo = r.CDFs[4].Median()
	}
	b.ReportMetric(m3d, "median_3d_dB")
	b.ReportMetric(m3mo, "median_3mo_dB")
}

func BenchmarkFig19ReconstructionEnvs(b *testing.B) {
	var hall, library float64
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig19ReconstructionEnvironments(benchSeeds())
		if err != nil {
			b.Fatal(err)
		}
		hall = r.MeanDB[0][3]
		library = r.MeanDB[2][3]
	}
	b.ReportMetric(hall, "hall_45d_dB")
	b.ReportMetric(library, "library_45d_dB")
}

func BenchmarkFig20LaborScaling(b *testing.B) {
	var trad, ours float64
	for i := 0; i < b.N; i++ {
		r := eval.Fig20LaborScaling()
		last := r.Points[len(r.Points)-1]
		trad, ours = last.TraditionalHours, last.IUpdaterHours
	}
	b.ReportMetric(trad, "traditional_10x_h")
	b.ReportMetric(ours, "iupdater_10x_h")
}

func BenchmarkFig21LocalizationCDF(b *testing.B) {
	var gt, iu, stale float64
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig21LocalizationCDF(testbed.Office(), benchSeeds())
		if err != nil {
			b.Fatal(err)
		}
		gt, iu, stale = r.Groundtruth.Median(), r.IUpdater.Median(), r.Stale.Median()
	}
	b.ReportMetric(gt, "groundtruth_median_m")
	b.ReportMetric(iu, "iupdater_median_m")
	b.ReportMetric(stale, "stale_median_m")
}

func BenchmarkFig22LocalizationEnvs(b *testing.B) {
	var hallImp, libImp float64
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig22LocalizationEnvironments(benchSeeds())
		if err != nil {
			b.Fatal(err)
		}
		hallImp = r.ImprovementPct[0]
		libImp = r.ImprovementPct[2]
	}
	b.ReportMetric(hallImp, "hall_improvement_pct")
	b.ReportMetric(libImp, "library_improvement_pct")
}

func BenchmarkFig23RASSCDF(b *testing.B) {
	var iu, rec, stale float64
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig23RASSComparison(testbed.Office(), benchSeeds())
		if err != nil {
			b.Fatal(err)
		}
		iu, rec, stale = r.IUpdater.Median(), r.RASSRec.Median(), r.RASSStale.Median()
	}
	b.ReportMetric(iu, "iupdater_median_m")
	b.ReportMetric(rec, "rass_rec_median_m")
	b.ReportMetric(stale, "rass_stale_median_m")
}

func BenchmarkFig24RASSOverTime(b *testing.B) {
	var iu, rec float64
	for i := 0; i < b.N; i++ {
		r, err := eval.Fig24RASSOverTime(testbed.Office(), benchSeeds())
		if err != nil {
			b.Fatal(err)
		}
		iu = eval.Mean(r.IUpdater)
		rec = eval.Mean(r.RASSRec)
	}
	b.ReportMetric(iu, "iupdater_mean_m")
	b.ReportMetric(rec, "rass_rec_mean_m")
}

func BenchmarkTableLaborSavings(b *testing.B) {
	var vs50, vs5 float64
	for i := 0; i < b.N; i++ {
		r := eval.LaborSavings()
		vs50, vs5 = r.SavingVs50Pct, r.SavingVs5Pct
	}
	b.ReportMetric(vs50, "saving_vs50_pct")
	b.ReportMetric(vs5, "saving_vs5_pct")
}

// --- ablations of design choices (DESIGN.md §6) ---

// ablationScenario builds the standard 45-day update inputs once.
type ablationInputs struct {
	sc    *eval.Scenario
	truth *mat.Dense
}

func newAblationInputs(b *testing.B) ablationInputs {
	b.Helper()
	sc, err := eval.NewScenario(testbed.Office(), 3)
	if err != nil {
		b.Fatal(err)
	}
	truth := sc.Surveyor.TrueFingerprint(45 * testbed.Day)
	return ablationInputs{sc: sc, truth: truth.X}
}

func reconError(sc *eval.Scenario, x *mat.Dense) float64 {
	return eval.Mean(sc.ReconErrors(x, 45*testbed.Day))
}

func BenchmarkAblationMIC(b *testing.B) {
	sc, err := eval.NewScenario(testbed.Office(), 3)
	if err != nil {
		b.Fatal(err)
	}
	var qrcp, rref float64
	for i := 0; i < b.N; i++ {
		for _, m := range []core.MICMethod{core.MICQRCP, core.MICRREF} {
			refs, err := core.MIC(sc.Original.X, 8, m)
			if err != nil {
				b.Fatal(err)
			}
			recon, err := sc.UpdateWithRefs(45*testbed.Day, refs)
			if err != nil {
				b.Fatal(err)
			}
			e := reconError(sc, recon)
			if m == core.MICQRCP {
				qrcp = e
			} else {
				rref = e
			}
		}
	}
	b.ReportMetric(qrcp, "qrcp_mean_dB")
	b.ReportMetric(rref, "rref_mean_dB")
}

func BenchmarkAblationSolverVariant(b *testing.B) {
	in := newAblationInputs(b)
	var gs, paper float64
	for i := 0; i < b.N; i++ {
		for _, v := range []core.Variant{core.VariantGaussSeidel, core.VariantPaper} {
			sc, err := eval.NewScenario(testbed.Office(), 3, core.WithVariant(v))
			if err != nil {
				b.Fatal(err)
			}
			_, r, err := sc.Update(45 * testbed.Day)
			if err != nil {
				b.Fatal(err)
			}
			e := reconError(in.sc, r.X)
			if v == core.VariantGaussSeidel {
				gs = e
			} else {
				paper = e
			}
		}
	}
	b.ReportMetric(gs, "gauss_seidel_mean_dB")
	b.ReportMetric(paper, "paper_variant_mean_dB")
}

func BenchmarkAblationInitialization(b *testing.B) {
	in := newAblationInputs(b)
	var warm, cold float64
	for i := 0; i < b.N; i++ {
		for _, w := range []bool{true, false} {
			sc, err := eval.NewScenario(testbed.Office(), 3, core.WithWarmStart(w))
			if err != nil {
				b.Fatal(err)
			}
			_, r, err := sc.Update(45 * testbed.Day)
			if err != nil {
				b.Fatal(err)
			}
			e := reconError(in.sc, r.X)
			if w {
				warm = e
			} else {
				cold = e
			}
		}
	}
	b.ReportMetric(warm, "warm_start_mean_dB")
	b.ReportMetric(cold, "algorithm1_random_mean_dB")
}

func BenchmarkAblationTermScaling(b *testing.B) {
	in := newAblationInputs(b)
	var auto, raw float64
	for i := 0; i < b.N; i++ {
		for _, on := range []bool{true, false} {
			sc, err := eval.NewScenario(testbed.Office(), 3, core.WithAutoScale(on))
			if err != nil {
				b.Fatal(err)
			}
			_, r, err := sc.Update(45 * testbed.Day)
			if err != nil {
				b.Fatal(err)
			}
			e := reconError(in.sc, r.X)
			if on {
				auto = e
			} else {
				raw = e
			}
		}
	}
	b.ReportMetric(auto, "autoscale_mean_dB")
	b.ReportMetric(raw, "rawweights_mean_dB")
}

func BenchmarkAblationMatcher(b *testing.B) {
	sc, err := eval.NewScenario(testbed.Office(), 3)
	if err != nil {
		b.Fatal(err)
	}
	_, rec, err := sc.Update(45 * testbed.Day)
	if err != nil {
		b.Fatal(err)
	}
	g := sc.Surveyor.Channel.Grid()
	pts := eval.TestPoints(g, 3, 50)
	matchers := map[string]loc.Localizer{
		"omp":     loc.NewOMPPoint(rec.X, g, loc.OMPConfig{}),
		"nearest": loc.NewNearestColumn(rec.X),
	}
	results := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for name, m := range matchers {
			var errs []float64
			for k, p := range pts {
				y := sc.Surveyor.MeasureOnline(p, 45*testbed.Day+3600+float64(k)*40, eval.OnlineSamples)
				cell, err := m.Locate(y)
				if err != nil {
					b.Fatal(err)
				}
				errs = append(errs, g.Center(cell).Distance(p))
			}
			results[name] = eval.NewCDF(name, errs).Median()
		}
	}
	b.ReportMetric(results["omp"], "omp_median_m")
	b.ReportMetric(results["nearest"], "nearest_median_m")
}

// BenchmarkReconstructSweeps measures the full update path (no-decrease
// scan + reference survey + warm-start reconstruction) with the ALS
// sweeps sharded over GOMAXPROCS workers (core.WithConcurrency(0)).
// Run with `-cpu 1,4` to observe multi-core scaling of the sweep
// sharding; on a single-core host allocs/op is the meaningful metric.
func BenchmarkReconstructSweeps(b *testing.B) {
	for _, arm := range []struct {
		name string
		opts []core.Option
	}{
		{"sequential", []core.Option{core.WithWarmStart(true)}},
		{"gomaxprocs", []core.Option{core.WithWarmStart(true), core.WithConcurrency(0)}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			sc, err := eval.NewScenario(testbed.Office(), 3, arm.opts...)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sc.Update(45 * testbed.Day); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Deployment serving benchmarks (serial Locate vs LocateBatch) ---

// benchDeployment builds an office Deployment plus a fixed batch of
// online measurements for the serving benchmarks.
func benchDeployment(b *testing.B, workers int, opts ...iupdater.Option) (*iupdater.Deployment, [][]float64) {
	b.Helper()
	tb := iupdater.NewTestbed(iupdater.Office(), 3)
	d, _, err := tb.Deploy(0, 20, append([]iupdater.Option{iupdater.WithWorkers(workers)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([][]float64, 256)
	for k := range batch {
		cx, cy := tb.CellCenter(k % tb.NumCells())
		batch[k] = tb.MeasureOnline(cx, cy, time.Duration(k)*time.Minute)
	}
	return d, batch
}

func BenchmarkLocateSerial(b *testing.B) {
	d, batch := benchDeployment(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rss := range batch {
			if _, err := d.Locate(rss); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(batch)), "queries/op")
}

// BenchmarkLocateTraced times the serving hot path with a tracer
// attached, in both retention regimes. The unsampled sub-benchmark
// (head sampling off, slow capture disabled) is the steady-state
// production configuration: the span tree is recorded into pooled
// scratch and dropped at Finish, so it must stay allocation-free
// (<= 2 allocs/op, gated in scripts/bench.sh, 0 measured). The
// sampled sub-benchmark retains every trace (head 1-in-1) and bounds
// the worst case: one copy-on-retain of the span tree per query.
func BenchmarkLocateTraced(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  trace.Config
	}{
		{"unsampled", trace.Config{DefaultSlow: -1}},
		{"sampled", trace.Config{HeadEvery: 1}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			tracer := trace.New(tc.cfg)
			d, batch := benchDeployment(b, 1, iupdater.WithTracer(tracer, "bench"))
			// Warm the pooled trace scratch and query scratch so b.N
			// iterations measure the steady state, not pool misses.
			for i := 0; i < 512; i++ {
				if _, err := d.Locate(batch[i%len(batch)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Locate(batch[i%len(batch)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if s := tracer.Stats(); s.Started == 0 {
				b.Fatal("tracer saw no traces; the locate path bypassed tracing")
			} else if tc.name == "unsampled" && s.Retained != 0 {
				b.Fatalf("unsampled run retained %d traces", s.Retained)
			}
		})
	}
}

// BenchmarkMonitorObserve times the drift-monitor observation hot path:
// one residual scan plus one detector step per served query. The CI
// bench smoke step runs it with -benchmem; the steady-state budget is
// <= 2 allocs per observed query (enforced by
// TestMonitorObserveAllocBudget, measured 0).
func BenchmarkMonitorObserve(b *testing.B) {
	d, batch := benchDeployment(b, 1)
	m, err := iupdater.NewMonitor(d, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	// Warm past detector calibration so b.N iterations measure the
	// steady state.
	for i := 0; i < 512; i++ {
		if err := m.Observe(batch[i%len(batch)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Observe(batch[i%len(batch)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorObserveAttribution times the observe path plus the
// per-link attribution readout: one residual decomposition, one EWMA
// fold and one top-k extraction per served query — the pattern a
// /metrics scrape alongside live traffic exercises. Same steady-state
// budget as BenchmarkMonitorObserve (<= 2 allocs/op, 0 measured),
// gated in scripts/bench.sh.
func BenchmarkMonitorObserveAttribution(b *testing.B) {
	d, batch := benchDeployment(b, 1)
	m, err := iupdater.NewMonitor(d, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 512; i++ {
		if err := m.Observe(batch[i%len(batch)]); err != nil {
			b.Fatal(err)
		}
	}
	links := make([]int, 3)
	errs := make([]float64, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Observe(batch[i%len(batch)]); err != nil {
			b.Fatal(err)
		}
		m.TopLinksInto(links, errs)
	}
}

// largeGridDeployment builds a synthetic campus-scale deployment (8
// links, perStrip cells per strip — perStrip 120 is 10x the office
// grid's 96 cells, 1200 is 100x) plus a battery of online-like queries:
// a smooth per-link shadowing dip over the cell position with small
// seeded noise, so neighboring columns correlate the way real RSS
// fingerprints do.
func largeGridDeployment(b *testing.B, perStrip int, opts ...iupdater.Option) (*iupdater.Deployment, [][]float64) {
	b.Helper()
	const links = 8
	g := iupdater.Geometry{WidthM: 12, HeightM: 9, Links: links, PerStrip: perStrip}
	n := g.NumCells()
	rows := make([][]float64, links)
	for i := range rows {
		rows[i] = make([]float64, n)
	}
	rng := rand.New(rand.NewSource(17))
	for j := 0; j < n; j++ {
		cx := (float64(j%perStrip) + 0.5) * g.WidthM / float64(perStrip)
		cy := (float64(j/perStrip) + 0.5) * g.HeightM / float64(links)
		for i := 0; i < links; i++ {
			linkY := (float64(i) + 0.5) * g.HeightM / links
			dy := cy - linkY
			rows[i][j] = -42 - 9*math.Exp(-dy*dy/1.8) - 0.4*math.Sin(0.9*cx+float64(i)) + 0.15*rng.NormFloat64()
		}
	}
	m, err := iupdater.MatrixFromRows(rows)
	if err != nil {
		b.Fatal(err)
	}
	d, err := iupdater.NewDeployment(m, g, opts...)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]float64, 64)
	for k := range queries {
		j := (k * 149) % n
		y := make([]float64, links)
		for i := range y {
			y[i] = rows[i][j] + 0.3*rng.NormFloat64()
		}
		queries[k] = y
	}
	return d, queries
}

// BenchmarkLocateLargeGrid measures the serving hot path on 10x and
// 100x office-sized grids under each search tier of the snapshot-time
// locate index. Alongside allocs/op (budget <= 2, enforced by
// scripts/bench.sh) it reports col_evals/op — the number of full
// column-distance/correlation evaluations per Locate, read from the
// snapshot's SearchStats counters — so the sub-linear claim is measured,
// not asserted: compare the 100x-sharded and 100x-exact arms.
func BenchmarkLocateLargeGrid(b *testing.B) {
	arms := []struct {
		name     string
		perStrip int
		opts     []iupdater.Option
	}{
		{"10x", 120, nil},
		{"100x", 1200, nil},
		{"100x-sharded", 1200, []iupdater.Option{iupdater.WithShardedSearch(0)}},
		{"100x-exact", 1200, []iupdater.Option{iupdater.WithExactSearch()}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			d, queries := largeGridDeployment(b, arm.perStrip, arm.opts...)
			// Warm the per-query scratch pool so b.N iterations measure
			// the steady state.
			for _, y := range queries {
				if _, err := d.Locate(y); err != nil {
					b.Fatal(err)
				}
			}
			start := d.Snapshot().SearchStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Locate(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := d.Snapshot().SearchStats()
			b.ReportMetric(float64(st.ColumnEvals-start.ColumnEvals)/float64(b.N), "col_evals/op")
		})
	}
}

func BenchmarkLocateBatch(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			d, batch := benchDeployment(b, workers)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.LocateBatch(ctx, batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(batch)), "queries/op")
		})
	}
}
