#!/bin/sh
# bench.sh — run the smoke benchmark set and write the JSON artifact the CI
# regression gate compares.
#
# Usage:
#   scripts/bench.sh smoke [outbase]   smoke set -> <outbase>.{txt,json}
#                                      (default outbase: bench/SMOKE_BASELINE)
#
# SMOKE_BASELINE.json is the CI regression gate: the bench-compare job
# re-runs the same smoke set with the same -benchtime and fails on >20%
# normalized regression (see scripts/benchdiff). Refresh it with
# `scripts/bench.sh smoke` whenever the smoke benchmarks change
# intentionally. End-to-end and per-layer performance tracking lives in
# benchmark/ (see benchmark/README.md and benchmark/BASELINE.json).
set -eu

cd "$(dirname "$0")/.."
mkdir -p bench

# The smoke set: kernel micro-benchmarks and the mixed-load suite — fast,
# deterministic simcycles, and the benchmarks whose ratios the README
# quotes. Time-based benchtime gives each entry enough iterations for a
# stable ns/op, and three repetitions let benchdiff compare min-of-runs
# (the noise-robust statistic); the CI compare gate depends on both.
# ShardScaling joins with its 1shard variant only: multi-shard ns/op scales
# with the host's core count, which benchdiff's single-threaded
# normalization probe cannot cancel. It needs its own invocation — a
# combined pattern's /1shard element would also filter the other
# benchmarks' sub-benchmarks.
smoke_pattern='EngineTick|EngineSkipIdle|EngineEvent|TransactionPath|PhasedMeasure|BurstyInjection|JournaledSweep|AnalyticEstimate|AdaptiveCurve'
smoke_shard_pattern='ShardScaling/1shard'
smoke_benchtime='300ms'
smoke_count=3

if [ "${1:-}" != "smoke" ]; then
  echo "usage: scripts/bench.sh smoke [outbase]" >&2
  exit 2
fi

# The CI bench-compare job runs this same path with a scratch outbase, so
# the pattern and benchtime above are the single source of truth for both
# sides of the comparison.
out="${2:-bench/SMOKE_BASELINE}"
go test -run='^$' -bench="$smoke_pattern" -benchtime="$smoke_benchtime" \
  -count="$smoke_count" . | tee "$out.txt"
go test -run='^$' -bench="$smoke_shard_pattern" -benchtime="$smoke_benchtime" \
  -count="$smoke_count" . | tee -a "$out.txt"
go run ./scripts/bench2json "$out.txt" > "$out.json"
echo "wrote $out.json" >&2
