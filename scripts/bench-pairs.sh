#!/usr/bin/env bash
# Alternating parent/change pairs of the repo benchmark, the evidence every
# performance claim in this repository rests on (ROADMAP.md ground rules).
#
#   scripts/bench-pairs.sh <parent-rev> [--workload W] [--pairs N] [--seed N]
#                          [--traced]
#
# The change is this checkout's tracked files as they are now (HEAD plus
# uncommitted edits); the parent is <parent-rev>. Each is exported into its
# own directory under ${TMPDIR:-/tmp}/bench-pairs and built into its own
# target directory, the way benchmark/run.sh builds. Then N pairs (default
# 10) of untraced runs of workload W (default publish_1m) alternate, the
# parent first on odd pairs and the change first on even ones, each run
# from its own checkout, so each side's harness verifies its own server.
# --seed hands both sides' runs the same harness seed (default: the
# harness's own), so a claim can be checked on a seed held out from the
# work that made it. --traced adds one traced run per side after the pairs
# and prints the set-up layers of the two side by side (publish_s,
# ready_s, store.save_binary_s, store.open_s, store.to_graph_s,
# pack.build_s, query.index_build_s), so a set-up claim can show which
# stage its saving came from.
#
# Prints, per end-to-end metric of BENCHMARK.json: each side's median
# [q1, q3], the change/parent ratio of the medians, in how many pairs the
# change was better, the parent's IQR as a share of its median, and a
# verdict against the metric's bound:
#   better         the change won at least 9 of 10 pairs (ties count for
#                  neither) and its median beats the parent's by more than
#                  the parent's IQR;
#   worse          the change's median is worse than the parent's by more
#                  than the bound;
#   unresolved     the parent's IQR exceeds the bound, so the runs cannot
#                  tell a change inside it from none — unless every run of
#                  the change reads better than every run of the parent;
#   within bound   otherwise.
# Leaves the change's runs in
# ${TMPDIR:-/tmp}/bench-pairs/results.json and the parent's in
# results-parent.json beside it, both in the shape scripts/bench-history.sh
# reads.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: $0 <parent-rev> [--workload W] [--pairs N] [--seed N] [--traced]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent_rev=$1
shift
workload=publish_1m
pairs=10
seed_args=()
traced=0
while [ $# -gt 0 ]; do
    case $1 in
        --workload) [ $# -ge 2 ] || usage; workload=$2; shift 2 ;;
        --pairs) [ $# -ge 2 ] || usage; pairs=$2; shift 2 ;;
        --seed) [ $# -ge 2 ] || usage; seed_args=(--seed "$2"); shift 2 ;;
        --traced) traced=1; shift ;;
        *) usage ;;
    esac
done

parent_commit=$(git rev-parse --verify "$parent_rev^{commit}")
# `git stash create` records the working tree without touching it; it
# prints nothing when there is nothing uncommitted.
change_commit=$(git stash create)
change_commit=${change_commit:-$(git rev-parse HEAD)}

work=${TMPDIR:-/tmp}/bench-pairs
mkdir -p "$work"
: > "$work/parent.jsonl"
: > "$work/change.jsonl"

for side in parent change; do
    commit_var=${side}_commit
    rm -rf "${work:?}/$side"
    mkdir -p "$work/$side"
    git archive "${!commit_var}" | tar -x -C "$work/$side"
    echo "building $side (${!commit_var})" >&2
    (
        cd "$work/$side"
        export CARGO_TARGET_DIR=$work/target-$side
        cargo build --release --offline --locked -q -p alicoco-serve --bin alicoco-serve >&2
        cargo build --release --offline -q --manifest-path benchmark/Cargo.toml >&2
    )
done

# One run of `side`, traced (1) or not (0), logged to `log`; appends its
# runs to `into`.
run_once() {
    local side=$1 trace=$2 log=$3 into=$4
    local target=$work/target-$side
    local results=$work/$side/benchmark/out/results.json
    rm -f "$results"
    (
        cd "$work/$side"
        "$target/release/alicoco-benchmark" --server "$target/release/alicoco-serve" \
            --workload "$workload" "${seed_args[@]}" --trace "$trace" > "$log" 2>&1
    ) || echo "the $side run failed (see $log)" >&2
    if [ -f "$results" ]; then
        jq -c '.runs[]' "$results" >> "$into"
    fi
}

run() {
    local side=$1 pair=$2
    run_once "$side" 0 "$work/$side-$pair.log" "$work/$side.jsonl"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "pair $pair/$pairs: $side" >&2
        run "$side" "$pair"
    done
done

jq -s '{runs: .}' "$work/change.jsonl" > "$work/results.json"
jq -s '{runs: .}' "$work/parent.jsonl" > "$work/results-parent.json"

# Runs are in pair order on both sides, so run i of one side pairs with
# run i of the other.
jq -rn --slurpfile bench BENCHMARK.json \
    --slurpfile parent "$work/parent.jsonl" --slurpfile change "$work/change.jsonl" '
  def q(p): sort | .[((length - 1) * p | floor)] as $lo | .[((length - 1) * p | ceil)] as $hi
            | $lo + ($hi - $lo) * ((length - 1) * p - ((length - 1) * p | floor));
  def stats: "\(q(0.5) | . * 1000 | round / 1000) [\(q(0.25) | . * 1000 | round / 1000), \(q(0.75) | . * 1000 | round / 1000)]";
  "workload \($change[0].stamp.workload // "?"): \($change | length) change runs, \($parent | length) parent runs",
  "correct: change \([$change[] | .correct] | all), parent \([$parent[] | .correct] | all); failed: change \([$change[] | .failed] | add), parent \([$parent[] | .failed] | add)",
  def pct: . * 1000 | round / 10;
  "metric\tparent median [q1, q3]\tchange median [q1, q3]\tratio\twins\tparent IQR\tverdict",
  ($bench[0].end_to_end[] as $m
   | [$parent[] | .metrics[$m.name]] as $p
   | [$change[] | .metrics[$m.name]] as $c
   | ([$p, $c] | map(length) | min) as $n
   | (if $m.better == "lower" then 1 else -1 end) as $sign
   | ([range(0; $n)] | map(select(($p[.] - $c[.]) * $sign > 0)) | length) as $wins
   | ($p | q(0.5)) as $pm | ($c | q(0.5)) as $cm
   | (($p | q(0.75)) - ($p | q(0.25))) as $iqr
   | (if $pm != 0 then $iqr / ($pm | fabs) else 0 end) as $spread
   | (($cm - $pm) * $sign / ($pm | fabs)) as $worse_by
   | (if $n > 0 and $wins * 10 >= $n * 9 and ($pm - $cm) * $sign > $iqr then "better"
      elif $worse_by > $m.bound then "worse"
      elif $spread > $m.bound
           and ([$c[] * $sign] | max) >= ([$p[] * $sign] | min)
        then "unresolved (parent IQR \($spread | pct) % > \($m.bound | pct) %)"
      else "within bound" end) as $verdict
   | "\($m.name)\t\($p | stats)\t\($c | stats)\t\($cm / $pm | . * 1000 | round / 1000)\t\($wins)/\($n)\t\($spread | pct) %\t\($verdict)")
'
if [ "$traced" -eq 1 ]; then
    for side in parent change; do
        echo "traced: $side" >&2
        : > "$work/$side-traced.jsonl"
        run_once "$side" 1 "$work/$side-traced.log" "$work/$side-traced.jsonl"
    done
    jq -rn --slurpfile parent "$work/parent-traced.jsonl" \
        --slurpfile change "$work/change-traced.jsonl" '
      def r3: if . == null then "-" else . * 1000 | round / 1000 end;
      "set-up layer (one traced run)\tparent\tchange\tratio",
      ("publish_s", "ready_s", "store.save_binary_s", "store.open_s", "store.to_graph_s",
       "pack.build_s", "query.index_build_s") as $k
      | ($parent[0].metrics[$k]) as $p | ($change[0].metrics[$k]) as $c
      | "\($k)\t\($p | r3)\t\($c | r3)\t\(if $p and $c and $p != 0 then $c / $p | r3 else "-" end)"
    '
fi
echo "append to the trajectory with:" >&2
echo "  scripts/bench-history.sh $work/results-parent.json $parent_commit" >&2
echo "  scripts/bench-history.sh $work/results.json $parent_commit+<change>" >&2
