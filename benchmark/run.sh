#!/usr/bin/env bash
# The one command of BENCHMARK.json. Builds the benchmark package from
# source (offline, into $CARGO_TARGET_DIR or ./target) and runs it.
#
#   benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh [--seed N] [--seconds S]     # every workload, untraced then traced
#
# The last line a run prints is its JSON result. A failed build exits
# non-zero and prints no result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
bin="$CARGO_TARGET_DIR/release/mloc-benchmark"

for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$bin" "$@"
  fi
done
for workload in import explore_cold explore_warm storm; do
  for trace in 0 1; do
    "$bin" --workload "$workload" --trace "$trace" "$@"
  done
done
