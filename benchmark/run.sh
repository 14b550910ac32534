#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace [0|1]]
#       runs the four workloads in a fixed order, each in a process of its
#       own, verifies every answer and prints every metric by name with its
#       unit. Exits non-zero if any op failed.
#   benchmark/run.sh --workload <name> --seed N --seconds S --trace 0|1
#       runs one workload (the form BENCHMARK.json's contract calls); the
#       last line of stdout is the result object.
#
# Builds the crate first (a no-op when it is up to date) into
# $CARGO_TARGET_DIR, or benchmark/target when that is unset.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
CARGO_TARGET_DIR=$(realpath -m "${CARGO_TARGET_DIR:-$here/target}")
export CARGO_TARGET_DIR
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin=$CARGO_TARGET_DIR/release/wimpi-benchmark

for arg in "$@"; do
    if [[ $arg == --workload ]]; then
        exec "$bin" "$@"
    fi
done

# All four workloads. `--trace` may come without a value.
args=()
while (($#)); do
    if [[ $1 == --trace && ! ${2:-} =~ ^[01]$ ]]; then
        args+=(--trace 1)
    else
        args+=("$1")
    fi
    shift
done
status=0
for workload in tpch22_serial scan_fused_t2 budget_ladder wimpi24_serve; do
    "$bin" --workload "$workload" "${args[@]}" || status=1
done
exit $status
