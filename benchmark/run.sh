#!/bin/bash
# Runs the benchmark from a checkout, for the command in BENCHMARK.json:
#
#   bash benchmark/run.sh --workload dd-bag --seed 1 --seconds 20 --trace 0
#
# It is `go run` on this directory, with the Go build cache and temporary
# files kept inside the checkout (.bench_build/) so that a run reads and
# writes nothing outside it.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/go-cache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
exec go run -C "$root/benchmark" . "$@"
