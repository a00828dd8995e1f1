#!/usr/bin/env bash
# Builds the benchmark from the source tree around this directory and runs
# it with the given arguments, from the root of the repository:
#
#   bash perfbench/run.sh --workload litmus --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, temporary files, the binary, and the
# benchmark's counter records and spans.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)

# Every leg is serial, so the run is pinned to one CPU, the last one: the
# scheduler then never moves it between CPUs and their caches. Where that
# CPU cannot be had, the run goes unpinned.
pin=()
cpu=$(($(nproc) - 1))
if command -v taskset >/dev/null && taskset -c "$cpu" true 2>/dev/null; then
	pin=(taskset -c "$cpu")
fi
exec "${pin[@]}" "$build/perfbench" --out "$build/perfbench-out" "$@"
