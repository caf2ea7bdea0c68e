#!/bin/sh
# Regenerates every experiment output in this directory, at the settings
# results/README.md records. Builds once, then writes each binary's stdout
# to results/<binary>.txt; progress (stderr) goes to the terminal.
# Usage: sh results/run_all.sh
set -e
cd "$(dirname "$0")/.."
cargo build --release -q -p optimod-bench
# Effort is bounded by the per-loop node cap, which repeats on every host;
# the 60 s wall budget is only a safety net.
export OPTIMOD_CORPUS=small OPTIMOD_NODE_CAP=50000
run() {
  bin=$1
  shift
  echo "=== $bin ===" >&2
  env "$@" "./target/release/$bin" > "results/$bin.txt"
}
run paper_tables OPTIMOD_BUDGET_MS=60000
run exp3_ims_optimality OPTIMOD_BUDGET_MS=60000
run ablation_stage_ilp OPTIMOD_BUDGET_MS=60000
run corpus_stats
echo done >&2
