#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it; BENCHMARK.json names
# this script as its command. Run it from the root of a checkout:
#
#   bash bench/run.sh --workload uniform_uncached --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays inside the checkout (.bench_build/), so
# the harness needs no writable home directory and leaves nothing outside.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/gocache}"
export GOPATH="${GOPATH:-$build/gopath}"
export GOTOOLCHAIN=local
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
