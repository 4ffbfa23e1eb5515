#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload hot_reads --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. The build cache, the binary and every file
# a run writes stay under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
