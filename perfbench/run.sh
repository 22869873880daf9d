#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#   bash perfbench/run.sh --workload engine-hot --seed 1 --seconds 10 --trace 0
# Run from the repository root. The build cache, binary, traces and
# profiles stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTMPDIR="$build" XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=readonly
go -C perfbench build -buildvcs=false -o "$build/perfbench-bin" . 1>&2
exec "$build/perfbench-bin" --out "$build/perfbench" "$@"
