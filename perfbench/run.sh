#!/usr/bin/env bash
# Build the daemon and the benchmark from this checkout, then run the
# benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <paper-batch|cap-study|served-mix> \
#       --seed N --seconds S --trace <0|1>
#
# Build output goes to stderr; the result is the last line of stdout.
# Without CARGO_TARGET_DIR, builds land in .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p stale-served >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
export PERFBENCH_SERVED_BIN="$CARGO_TARGET_DIR/release/stale-served"
export PERFBENCH_WORK_DIR="$CARGO_TARGET_DIR/perfbench"
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
