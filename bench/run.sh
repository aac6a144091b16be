#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash bench/run.sh --workload sweep_paper --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --seed 1 --runs 5 --out base.json   # every workload
#
# The build cache, the binary and every file a run writes stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
go -C "$root/bench" build -o "$build/bgbench" .
exec "$build/bgbench" "$@"
