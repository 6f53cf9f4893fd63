#!/usr/bin/env bash
# The one command of BENCHMARK.json.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload in a process of its own; the last line of
#       stdout is the result object (this is what the driver calls)
#   bash benchmark/run.sh [--seed <n>] [--seconds <s>]
#       every workload untraced, then traced: prints every metric as
#       `name unit value n=<samples>` and writes benchmark/out/result.json
#   bash benchmark/run.sh --smoke
#       the same at a tenth of the run length
#   bash benchmark/run.sh --check-repeat [--runs <n>] [--workloads a,b]
#       two sets of <n> seeds per workload; prints every spread and fails
#       if a spread, or the gap between the two medians, is beyond a bound
#
# Builds the harness first (release, offline); with CARGO_TARGET_DIR unset
# the build lands in benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

bin="$target/release/tklus-benchmark"
built_before="$(stat -c %Y "$bin" 2>/dev/null || echo none)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
if [ "$(stat -c %Y "$bin")" != "$built_before" ]; then
  # A compile leaves this host slow to wake threads for tens of seconds
  # (the 0.2 ms requests of query_selective read 0.38 ms in the two runs
  # after one): let it settle before the first run on a new binary.
  sleep 30
fi

for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$bin" --out-dir "$here/out" "$@"
  fi
done
exec python3 "$here/report.py" --bin "$bin" --contract "$here/../BENCHMARK.json" --out "$here/out" "$@"
