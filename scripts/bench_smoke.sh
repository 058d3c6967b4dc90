#!/bin/sh
# The in-repo kernel bench gate: `hcapp bench` sweeps HCAPP quanta/sec over
# package sizes {3,16,64,256}, records the median and min..max over trials
# -> results/BENCH_kernel.json, and the medians are gated by
# results/BENCH_thresholds.json. (scripts/check.sh runs the faster
# {3,64}-point variant of the same gate.) The repository benchmark with
# its A/B protocol is perfbench/, declared in BENCHMARK.json.
# Knobs (all optional):
#   HCAPP_BENCH_MS       simulated milliseconds per run   (default 10)
#   HCAPP_BENCH_TRIALS   trials per point                 (default 3)
#   HCAPP_BENCH_POINTS   domain counts                    (default 3,16,64,256;
#                        a non-default list is smoke mode: the report is
#                        written to a scratch directory that is gated and
#                        then deleted, so the committed artifact is untouched)
set -eu
cd "$(dirname "$0")/.."

points="${HCAPP_BENCH_POINTS:-3,16,64,256}"
out_dir=results
if [ "$points" != "3,16,64,256" ]; then
    out_dir=$(mktemp -d)
    trap 'rm -rf "$out_dir"' EXIT
fi
kernel_out="$out_dir/BENCH_kernel.json"

cargo run --release -q -p hcapp-cli -- bench \
    --points "$points" \
    --ms "${HCAPP_BENCH_MS:-10}" \
    --trials "${HCAPP_BENCH_TRIALS:-3}" \
    --out "$kernel_out"

test -s "$kernel_out" || {
    echo "bench_smoke: $kernel_out was not written" >&2
    exit 1
}

# Perf regression gate on the medians. The floors sit well below the
# measured spread (smoke timings are noisy): they catch order-of-magnitude
# regressions, not percent-level drift. Only ever raise them.
cargo run --release -q -p hcapp-cli -- analyze \
    --assert results/BENCH_thresholds.json --report "$kernel_out"
