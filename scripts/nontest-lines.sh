#!/usr/bin/env bash
# Count the workspace's non-test lines, the size this repo tracks from one
# change to the next: for every Rust file under `crates/*/src` and every
# bench under `crates/bench/benches`, the lines above its first
# `#[cfg(test)]` (all of its lines when it has none). A file that is only
# compiled as a `#[cfg(test)] mod <name>;` of another file is test code
# and is skipped. Prints one "<lines> <path>" row per file, sorted by
# path, then the total.
#
#   scripts/nontest-lines.sh [checkout]
#
# Defaults to this checkout; pass another one's root to count it the same
# way (e.g. a `git archive` of the parent commit), then diff the two.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

files=$({
    find crates -path 'crates/*/src/*' -name '*.rs'
    find crates/bench/benches -maxdepth 1 -name '*.rs'
} | LC_ALL=C sort)

# The files declared as `#[cfg(test)] mod <name>;` (the attribute on the
# declaration's line or the line above), resolved the way rustc does:
# beside a `lib.rs`/`main.rs`/`mod.rs`, else in the directory named after
# the declaring file.
test_only=$(for file in $files; do
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { armed = 1 }
         armed && match($0, /mod [A-Za-z0-9_]+;/) { print substr($0, RSTART + 4, RLENGTH - 5); armed = 0; next }
         !/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { armed = 0 }' "$file" |
    while read -r name; do
        case "$(basename "$file")" in
        lib.rs | main.rs | mod.rs) dir=$(dirname "$file") ;;
        *) dir=${file%.rs} ;;
        esac
        echo "$dir/$name.rs"
        echo "$dir/$name/mod.rs"
    done
done)

for file in $files; do
    if grep -qxF "$file" <<<"$test_only"; then
        continue
    fi
    awk -v file="$file" '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0, file }' "$file"
done | awk '{ print; total += $1 } END { print total, "total" }'
