#!/bin/sh
# Smoke-mode scaling benches, written to results/ so the perf trajectory
# is tracked across PRs:
#   1. bench_parallel: serial vs pooled vs batched wall-clock plus
#      cold/warm cache timing -> results/BENCH_parallel.json, gated by
#      results/BENCH_parallel_thresholds.json.
#   2. hcapp bench: the quantum-stepper kernel's quanta/sec sweep over
#      package sizes {3,16,64,256} under the serial/pooled/batched
#      executors, plus the legacy-stepper baseline and kernel-vs-legacy
#      ratio -> results/BENCH_kernel.json, gated by
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
#                        a non-default list writes BENCH_kernel_smoke.json so
#                        the committed full-sweep artifact is not clobbered)
set -eu
cd "$(dirname "$0")/.."

cargo build --release -q -p hcapp-experiments --bin bench_parallel
./target/release/bench_parallel

test -s results/BENCH_parallel.json || {
    echo "bench_smoke: results/BENCH_parallel.json was not written" >&2
    exit 1
}

# Perf regression gates: the committed thresholds are deliberately loose
# (smoke timings are noisy) — they catch order-of-magnitude regressions
# like batching, the warm cache or the stepper kernel silently stopping
# to engage, not percent-level drift. Re-baseline via the two thresholds
# files in results/.
cargo run --release -q -p hcapp-cli -- analyze \
    --assert results/BENCH_parallel_thresholds.json \
    --report results/BENCH_parallel.json

points="${HCAPP_BENCH_POINTS:-3,16,64,256}"
kernel_out=results/BENCH_kernel.json
[ "$points" = "3,16,64,256" ] || kernel_out=results/BENCH_kernel_smoke.json

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

[ "$kernel_out" = results/BENCH_kernel.json ] || rm -f "$kernel_out"
