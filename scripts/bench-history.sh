#!/usr/bin/env bash
# Append the repo benchmark's end-to-end medians to BENCH_history.jsonl, the
# perf trajectory: one JSON row per workload — commit, seed, run count and
# the median over the untraced runs of each end-to-end metric BENCHMARK.json
# names (end-to-end numbers are measured with tracing off).
#
#   scripts/bench-history.sh [results.json] [commit]
#
# Defaults: benchmark/out/results.json (what `benchmark/run.sh --trace 0`
# leaves; use `--repeat N` for real medians) and the checked-out HEAD. Pass
# the commit when the runs were made on another checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
results=${1:-benchmark/out/results.json}
commit=${2:-$(git rev-parse HEAD)}

jq -c --arg commit "$commit" --slurpfile bench BENCHMARK.json '
  def median: sort | if length % 2 == 1 then .[(length - 1) / 2]
              else (.[length / 2 - 1] + .[length / 2]) / 2 end;
  ($bench[0].end_to_end | map(.name)) as $names
  | [.runs[] | select(.stamp.traced | not)]
  | group_by([.stamp.workload, .stamp.seed])[]
  | . as $runs
  | {commit: $commit, workload: .[0].stamp.workload, seed: .[0].stamp.seed, runs: length}
    + ($names | map({key: ., value: (. as $n | $runs | map(.metrics[$n]) | median)}) | from_entries)
' "$results" >> BENCH_history.jsonl
