#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source, then run it
# with the driver's arguments. Everything the build and the run write —
# the Go build cache, the binary, journals and artifacts — lands under
# .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
go build -o "$build/noctg-benchmark" ./benchmark
exec "$build/noctg-benchmark" -out "" "$@"
