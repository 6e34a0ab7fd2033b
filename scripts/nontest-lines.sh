#!/usr/bin/env bash
# Count the workspace's non-test lines, the size this repo tracks from one
# change to the next: for every Rust file under `crates/*/src` and every
# bench under `crates/bench/benches`, the lines above its first
# `#[cfg(test)]` (all of its lines when it has none). Prints one
# "<lines> <path>" row per file, sorted by path, then the total.
#
#   scripts/nontest-lines.sh [checkout]
#
# Defaults to this checkout; pass another one's root to count it the same
# way (e.g. a `git archive` of the parent commit), then diff the two.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

{
    find crates -path 'crates/*/src/*' -name '*.rs'
    find crates/bench/benches -maxdepth 1 -name '*.rs'
} | LC_ALL=C sort | while read -r file; do
    awk -v file="$file" '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0, file }' "$file"
done | awk '{ print; total += $1 } END { print total, "total" }'
