#!/usr/bin/env bash
# The repo benchmark's one command. Builds the real alicoco-serve binary
# from the root workspace and the harness from this package, then runs the
# harness, which spawns the server and drives it. Arguments go to the
# harness unchanged:
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--smoke] [--repeat N]
#
# See benchmark/README.md. Outputs go to benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."

# Cargo prints to stdout only with --message-format; keep ours for results.
cargo build --release --offline --locked -q -p alicoco-serve --bin alicoco-serve >&2
cargo build --release --offline -q --manifest-path benchmark/Cargo.toml >&2

# One shared target directory when the caller names one, else each
# workspace's own.
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/alicoco-benchmark" \
    --server "${CARGO_TARGET_DIR:-target}/release/alicoco-serve" "$@"
