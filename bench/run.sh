#!/usr/bin/env bash
# Builds the iupdater server and the benchmark from the checkout it is run
# in, then runs the benchmark. Run it from the repository root:
#
#   bash bench/run.sh --workload query-single --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --workload all --seed 1
#   bash bench/run.sh compare -base base.jsonl -head head.jsonl
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache, the binaries, the servers' data directories and the
# benchmark's traces and results.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export CGO_ENABLED=0

go build -o "$build/bin/iupdater" ./cmd/iupdater
(cd bench && go build -o "$build/bin/bench" .)

# With two or more CPUs the load generator runs on CPU 0 and the servers
# on the others, so the two sides do not preempt each other: sharing
# CPUs made run-to-run spreads two to three times wider.
pin=()
server_cpus=
ncpu=$(nproc)
if [ "$ncpu" -ge 2 ] && command -v taskset > /dev/null; then
	pin=(taskset -c 0)
	server_cpus="1-$((ncpu - 1))"
fi

exec "${pin[@]}" "$build/bin/bench" -bin "$build/bin/iupdater" -server-cpus "$server_cpus" \
	-work "$build/work" -out "$build/out" "$@"
