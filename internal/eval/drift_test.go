package eval

import (
	"math"
	"testing"
)

// TestDriftStationaryNoFalsePositives streams >= 10k queries against an
// unchanged environment: the monitor must never declare drift, never
// survey, and leave the original snapshot serving. (Seeded and
// deterministic; seeds cover a slow-aging and a fast-aging radio fleet.)
func TestDriftStationaryNoFalsePositives(t *testing.T) {
	for _, seed := range []uint64{1, 10} {
		res, err := DriftMonitorRun(DriftRunConfig{
			Seed:    seed,
			Queries: 10_000,
			FlipAt:  0, // never changes
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s := res.Stats
		if s.Queries != 10_000 {
			t.Fatalf("seed %d: observed %d queries", seed, s.Queries)
		}
		if s.Detections != 0 || s.UpdatesTriggered != 0 {
			t.Errorf("seed %d: %d false detections, %d updates on a stationary run (score %.2f)",
				seed, s.Detections, s.UpdatesTriggered, s.Score)
		}
		if s.SnapshotVersion != 1 {
			t.Errorf("seed %d: snapshot version %d, want untouched 1", seed, s.SnapshotVersion)
		}
	}
}

// TestDriftFlipDetectedAndRepaired flips the environment mid-run and
// checks the whole closed loop: bounded detection delay, an automatic
// update, and a repaired database within 0.5 dB of the one a manual
// update at the flip instant would have produced — while the stale
// database is far worse than either.
func TestDriftFlipDetectedAndRepaired(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		res, err := DriftMonitorRun(DriftRunConfig{
			Seed:    seed,
			Queries: 1200,
			FlipAt:  600,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s := res.Stats
		if s.Detections == 0 {
			t.Fatalf("seed %d: environment change never detected (score %.2f)", seed, s.Score)
		}
		// The default detector needs ~a quarter window of drifted
		// residuals plus the hysteresis run; 128 queries (= 64 s of
		// traffic) is a generous ceiling.
		if res.DetectionDelay < 0 || res.DetectionDelay > 128 {
			t.Errorf("seed %d: detection delay %d queries, want within 128", seed, res.DetectionDelay)
		}
		if s.UpdatesCompleted == 0 || s.UpdateErrors != 0 {
			t.Fatalf("seed %d: auto-update did not complete: %+v", seed, s)
		}
		if s.SnapshotVersion < 2 {
			t.Errorf("seed %d: no new snapshot published (version %d)", seed, s.SnapshotVersion)
		}
		if math.IsNaN(res.AutoErrDB) || math.IsNaN(res.ManualErrDB) {
			t.Fatalf("seed %d: missing arm: auto %.3f manual %.3f", seed, res.AutoErrDB, res.ManualErrDB)
		}
		if diff := math.Abs(res.AutoErrDB - res.ManualErrDB); diff > 0.5 {
			t.Errorf("seed %d: auto-update %.3f dB vs manual %.3f dB (diff %.3f, want <= 0.5)",
				seed, res.AutoErrDB, res.ManualErrDB, diff)
		}
		if res.AutoErrDB >= res.StaleErrDB {
			t.Errorf("seed %d: auto-update %.3f dB did not improve on stale %.3f dB",
				seed, res.AutoErrDB, res.StaleErrDB)
		}
	}
}

// TestDriftAdaptiveCooldownBeatsFixed double-flips the environment:
// the first flip triggers an auto-update, and the second lands while a
// fixed-width cooldown would still be counting down. The residual-driven
// adaptive policy (same 1000-query ceiling as the fixed default) must
// trigger the needed second update strictly sooner than the fixed
// policy, with exactly the same number of total updates — faster
// reaction, no extra churn. The stationary control then shows the
// adaptive default raises no false updates either.
func TestDriftAdaptiveCooldownBeatsFixed(t *testing.T) {
	base := DriftRunConfig{
		Seed:         1,
		Queries:      2200,
		FlipAt:       400,
		SecondFlipAt: 1000,
	}
	fixedCfg := base
	fixedCfg.Cooldown = 1000 // the old fixed default, explicitly
	fixed, err := DriftMonitorRun(fixedCfg)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := DriftMonitorRun(base) // adaptive is the Monitor default
	if err != nil {
		t.Fatal(err)
	}

	if fixed.Stats.UpdatesTriggered < 2 {
		t.Fatalf("fixed arm never reached the second update: %+v", fixed.Stats)
	}
	if adaptive.Stats.UpdatesTriggered < 2 {
		t.Fatalf("adaptive arm never reached the second update: %+v", adaptive.Stats)
	}
	if fixed.SecondUpdateDelay < 0 || adaptive.SecondUpdateDelay < 0 {
		t.Fatalf("second-update delays not recorded: fixed %d adaptive %d",
			fixed.SecondUpdateDelay, adaptive.SecondUpdateDelay)
	}
	t.Logf("second update: adaptive after %d queries, fixed after %d",
		adaptive.SecondUpdateDelay, fixed.SecondUpdateDelay)
	if adaptive.SecondUpdateDelay >= fixed.SecondUpdateDelay {
		t.Errorf("adaptive second update after %d queries, fixed after %d — adaptive must react sooner",
			adaptive.SecondUpdateDelay, fixed.SecondUpdateDelay)
	}
	if adaptive.Stats.UpdatesTriggered != fixed.Stats.UpdatesTriggered {
		t.Errorf("adaptive triggered %d updates vs fixed %d — faster must not mean more",
			adaptive.Stats.UpdatesTriggered, fixed.Stats.UpdatesTriggered)
	}

	// Stationary control under the adaptive default: no false updates.
	still, err := DriftMonitorRun(DriftRunConfig{Seed: 1, Queries: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if still.Stats.Detections != 0 || still.Stats.UpdatesTriggered != 0 {
		t.Errorf("stationary adaptive run: %d detections, %d updates, want none",
			still.Stats.Detections, still.Stats.UpdatesTriggered)
	}
}

// TestDriftRunDeterministic re-runs one flip scenario and requires
// bit-identical outcomes: the whole loop (measurement, residual,
// detection, reference survey, reconstruction) is seeded.
func TestDriftRunDeterministic(t *testing.T) {
	cfg := DriftRunConfig{Seed: 3, Queries: 900, FlipAt: 500}
	a, err := DriftMonitorRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DriftMonitorRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.DetectionDelay != b.DetectionDelay ||
		a.Stats.Detections != b.Stats.Detections ||
		a.Stats.UpdatesCompleted != b.Stats.UpdatesCompleted ||
		a.AutoErrDB != b.AutoErrDB || a.ManualErrDB != b.ManualErrDB {
		t.Errorf("runs diverge:\n a: %+v (delay %d)\n b: %+v (delay %d)",
			a.Stats, a.DetectionDelay, b.Stats, b.DetectionDelay)
	}
}
