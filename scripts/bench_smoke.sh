#!/bin/sh
# Smoke-mode scaling benches, written to results/ so the perf trajectory
# is tracked across PRs:
#   1. bench_parallel: serial vs pooled vs batched wall-clock plus
#      cold/warm cache timing -> results/BENCH_parallel.json, gated by
#      results/BENCH_parallel_thresholds.json.
#   2. hcapp bench: the quantum-stepper kernel's quanta/sec sweep over
#      package sizes {3,16,64,256} under the serial/pooled/batched
#      executors -> results/BENCH_kernel.json, gated by
#      results/BENCH_thresholds.json. (scripts/check.sh runs the faster
#      {3,64}-point variant of the same gate.)
# Knobs (all optional):
#   HCAPP_BENCH_MS       simulated milliseconds per run   (default 20)
#   HCAPP_BENCH_SCALE    domains per kind                 (default 4 -> 12)
#   HCAPP_BENCH_WORKERS  pool size                        (hcapp bench: host
#                        parallelism, larger values clamped to it;
#                        bench_parallel: 4)
#   HCAPP_BENCH_TRIALS   best-of-N trials                 (default 3)
#   HCAPP_BENCH_POINTS   kernel-bench domain counts       (default 3,16,64,256;
#                        a non-default list is smoke mode: both benches
#                        write to a scratch directory that is gated and
#                        then deleted, so committed artifacts are untouched)
set -eu
cd "$(dirname "$0")/.."

points="${HCAPP_BENCH_POINTS:-3,16,64,256}"
out_dir=results
if [ "$points" != "3,16,64,256" ]; then
    out_dir=$(mktemp -d)
    trap 'rm -rf "$out_dir"' EXIT
fi
parallel_out="$out_dir/BENCH_parallel.json"
kernel_out="$out_dir/BENCH_kernel.json"

cargo build --release -q -p hcapp-experiments --bin bench_parallel
HCAPP_OUT="$out_dir" ./target/release/bench_parallel

test -s "$parallel_out" || {
    echo "bench_smoke: $parallel_out was not written" >&2
    exit 1
}

# Perf regression gates: the committed thresholds are deliberately loose
# (smoke timings are noisy) — they catch order-of-magnitude regressions
# like batching or the warm cache silently stopping to engage, not
# percent-level drift. Re-baseline via the two thresholds files in
# results/.
cargo run --release -q -p hcapp-cli -- analyze \
    --assert results/BENCH_parallel_thresholds.json \
    --report "$parallel_out"

cargo run --release -q -p hcapp-cli -- bench \
    --points "$points" \
    --ms "${HCAPP_BENCH_MS:-10}" \
    ${HCAPP_BENCH_WORKERS:+--workers "$HCAPP_BENCH_WORKERS"} \
    --trials "${HCAPP_BENCH_TRIALS:-3}" \
    --out "$kernel_out"

test -s "$kernel_out" || {
    echo "bench_smoke: $kernel_out was not written" >&2
    exit 1
}

cargo run --release -q -p hcapp-cli -- analyze \
    --assert results/BENCH_thresholds.json --report "$kernel_out"
