#!/usr/bin/env bash
# Builds the benchmark (offline, release) and hands the arguments to it.
#
#   bash benchmark/run.sh --workload warm_query --seed 1 --seconds 12 --trace 0
#       one run, as the driver starts it; the last line is the result
#   bash benchmark/run.sh run [--smoke]     every workload, every metric
#   bash benchmark/run.sh aa  [--smoke]     two sets, compared
#
# Run it from anywhere; it builds into $CARGO_TARGET_DIR, or into
# benchmark/target when that is not set.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/hnsbench" "$@"
