#!/usr/bin/env bash
# Builds the benchmark from source and runs it. See README.md.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh [--seed N] [--seconds S]                        all four workloads,
#                                                                    untraced + traced
#   benchmark/run.sh --check A.json B.json                           compare two results files
set -euo pipefail
dir=$(dirname "$0")
target=${CARGO_TARGET_DIR:-$dir/target}
# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --manifest-path "$dir/Cargo.toml" --target-dir "$target" 1>&2
exec "$target/release/choco-benchmark" --out "$dir/out" "$@"
