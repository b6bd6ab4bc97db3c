#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. The Go
# build cache, the binary and everything the run writes (TMPDIR included,
# where the benchmark makes its default output directory) stay under
# .bench_build/ of that checkout; arguments go to the benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/crowdbench" ./benchmark
exec "$build/crowdbench" "$@"
