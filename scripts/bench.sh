#!/usr/bin/env bash
# Allocation-budget smoke for the reconstruction, monitoring,
# persistence, locate and fleet hot paths.
#
# Runs the two reconstruction benchmarks that gate solver performance
# (Fig 16 constraint ablation and the initialization ablation), the
# traditional full-survey benchmark, the drift-monitor observe
# benchmarks, the snapshot-store append+load benchmark, the replica
# apply benchmark, the locate-index query benchmarks (10x and 100x
# office-sized grids under the pruned and exact search tiers), and the
# fleet LRU query benchmarks (hot resident path and the cold
# park/rehydrate cycle, without and with a drift monitor) with
# -benchmem, and prints the result:
#
#	./scripts/bench.sh              # 1 iteration (smoke)
#	BENCHTIME=3x ./scripts/bench.sh # more iterations
#
# Extra arguments are passed to `go test` (e.g. -cpu 1,4).
#
# Only allocs/op is gated. Single-shot ns/op figures differ by 2-8x
# between runs of one commit, so speed claims belong to the end-to-end
# benchmark in bench/ (bench/run.sh compare), which measures them
# against a stated noise band. BENCH_recon.json is the frozen history
# of earlier runs of this script; it is no longer appended to.
#
# The run FAILS (non-zero exit) when any benchmark's allocs/op regresses
# past its documented budget:
#
#	Fig16ConstraintAblation  <= 100000  (PR-2 kernel layer: ~16k measured;
#	                                     the pre-kernel baseline was 1.94M)
#	AblationInitialization   <=  20000  (~3.3k measured)
#	SurveyMatrix             <=      8  (4 measured: the survey matrix's
#	                                     header and data, its column
#	                                     scratch and the public Matrix
#	                                     copy)
#	MonitorObserve           <=      2  (0 measured; also enforced by
#	                                     TestMonitorObserveAllocBudget)
#	MonitorObserveAttribution <=     2  (0 measured: observe + per-link
#	                                     EWMA fold + top-k readout)
#	StoreAppendLoad          <=     12  (2 measured: one record buffer,
#	                                     one payload read buffer)
#	ReplicaApply             <=      4  (0 measured: the follower's
#	                                     validate-and-apply path reuses
#	                                     its payload buffer steady-state)
#	LocateLargeGrid/*        <=      2  (0 measured: pooled per-query
#	                                     scratch keeps both search tiers
#	                                     allocation-free; the col_evals/op
#	                                     metric tracks how many column
#	                                     evaluations pruning saves)
#	LocateTraced/unsampled   <=      2  (0 measured: pooled span scratch
#	                                     keeps tracing off the allocator
#	                                     when a trace is not retained)
#	LocateTraced/sampled     <=     16  (~8 measured: the copy-on-retain
#	                                     of the span tree into the ring
#	                                     when every trace is kept)
#	FleetHotQuery            <=      2  (0 measured: a resident site's
#	                                     Hydrate is one atomic load plus
#	                                     an LRU touch, and the Locate
#	                                     scratch is pooled)
#	FleetColdQuery           <=    200  (27 measured in steady state,
#	                                     31-42 at 1x: every op pays a
#	                                     full park/rehydrate cycle —
#	                                     store read, snapshot decode,
#	                                     index build)
#	FleetColdQueryMonitored  <=     64  (41-50 measured at 1x, 37 in
#	                                     steady state: the cold cycle
#	                                     plus a monitor parked and
#	                                     rebuilt and one Observe; 65
#	                                     when parking wrote the state
#	                                     blob and rehydration read it)
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-1x}"
out="$(go test -run '^$' -bench 'Fig16ConstraintAblation|AblationInitialization|SurveyMatrix|MonitorObserve|StoreAppendLoad|ReplicaApply|LocateLargeGrid|LocateTraced|FleetHotQuery|FleetColdQuery' \
	-benchtime "$benchtime" -benchmem "$@" . ./internal/store)"
echo "$out"

# Allocation-budget gate: a regression past a documented budget fails
# the smoke loudly.
echo "$out" | awk '
BEGIN {
	budget["BenchmarkFig16ConstraintAblation"] = 100000
	budget["BenchmarkAblationInitialization"] = 20000
	budget["BenchmarkSurveyMatrix"] = 8
	budget["BenchmarkMonitorObserve"] = 2
	budget["BenchmarkMonitorObserveAttribution"] = 2
	budget["BenchmarkStoreAppendLoad"] = 12
	budget["BenchmarkReplicaApply"] = 4
	budget["BenchmarkLocateLargeGrid/10x"] = 2
	budget["BenchmarkLocateLargeGrid/100x"] = 2
	budget["BenchmarkLocateLargeGrid/100x-exact"] = 2
	budget["BenchmarkLocateTraced/unsampled"] = 2
	budget["BenchmarkLocateTraced/sampled"] = 16
	budget["BenchmarkFleetHotQuery"] = 2
	budget["BenchmarkFleetColdQuery"] = 200
	budget["BenchmarkFleetColdQueryMonitored"] = 64
	failures = 0
}
/^Benchmark/ {
	name = $1; allocs = -1
	sub(/-[0-9]+$/, "", name)
	for (i = 2; i <= NF; i++) if ($i == "allocs/op") allocs = $(i-1)
	if (name in budget) {
		seen[name] = 1
		if (allocs < 0) {
			printf("FAIL: %s reported no allocs/op (ran without -benchmem?)\n", name)
			failures++
		} else if (allocs + 0 > budget[name]) {
			printf("FAIL: %s allocs/op %d exceeds the documented budget %d\n", name, allocs, budget[name])
			failures++
		}
	}
}
END {
	for (name in budget) if (!(name in seen)) {
		printf("FAIL: budgeted benchmark %s did not run\n", name)
		failures++
	}
	if (failures > 0) exit 1
	print "allocation budgets OK"
}'
