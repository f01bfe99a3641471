#!/usr/bin/env bash
# Pipeline benchmark: runs crawl + PushAdMiner under a PerfClock tracer and
# writes BENCH_pipeline.json (per-stage wall time, peak matrix bytes,
# perf config, speedup vs committed baseline, record/cluster counters).
# Usage: scripts/bench.sh [--smoke] [--seed N] [--scale F] [--output PATH]
#                         [--workers N] [--tile-size N]
#                         [--storage dense|sparse] [--blocking none|url]
#        scripts/bench.sh --compare [BASELINE] [--tolerance F] [--min-wall S]
#   --compare re-runs the committed baseline's scenario and exits nonzero on
#   a >tolerance wall-time regression in any pipeline stage or summary drift.
set -eu -o pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

exec python -m repro.bench "$@"
