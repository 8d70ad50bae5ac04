#!/usr/bin/env bash
# Runs the CI bench suite (the eight acceptance benches plus the filtered
# micro_primitives run: the surrogate training cost and the surrogate-backed
# evaluate cost), merges their JSON metric emissions into one BENCH.json
# artifact, and — when BENCH_BASELINE is set — fails on any gated
# regression (see tools/compare_bench.py).
#
#   BUILD_DIR        build tree holding bench/ binaries   (default: build)
#   BENCH_OUT        merged artifact path                 (default: BENCH.json)
#   BENCH_BASELINE   baseline to gate against             (default: none)
#   MAPCQ_TRACE      trace replayed by trace_replay       (default: the
#                    checked-in bench/traces/smoke.trace)
#   MAPCQ_GENERATIONS / MAPCQ_POPULATION / MAPCQ_THREADS  scale, as usual
#
# Every bench is also a pass/fail check in its own right: a non-zero exit
# from any of them fails the suite before the comparison runs.
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir=${BUILD_DIR:-build}
out=${BENCH_OUT:-BENCH.json}
baseline=${BENCH_BASELINE:-}
export MAPCQ_TRACE=${MAPCQ_TRACE:-bench/traces/smoke.trace}

jsonl=$(mktemp)
trap 'rm -f "$jsonl"' EXIT

benches=(eval_engine serving_reuse island_scaling service_throughput surrogate_refresh trace_replay shard_restore colocation)
for b in "${benches[@]}"; do
  echo "=== bench: $b ==="
  MAPCQ_BENCH_JSON=$jsonl "$build_dir/bench/$b"
  echo
done

# Surrogate training cost (informational surrogate_fit_ms) and the
# surrogate-backed evaluate (informational surrogate_eval_us); filtered so
# only the surrogate_train benchmarks run.
echo "=== bench: micro_primitives (surrogate fit and evaluate) ==="
MAPCQ_BENCH_JSON=$jsonl "$build_dir/bench/micro_primitives" \
  --benchmark_filter='surrogate_train'
echo

args=("$jsonl" --out "$out")
if [ -n "$baseline" ]; then
  args+=(--baseline "$baseline")
fi
python3 tools/compare_bench.py "${args[@]}"
