#!/bin/sh
# Long-form fuzz soak: sweep many campaign seeds through the full
# differential + metamorphic oracle set with bigger corpora than the
# bounded `hcapp fuzz --smoke` gate in scripts/check.sh.
#
# Every campaign is a pure function of its seed, so a failure here is
# immediately reproducible with
#     hcapp fuzz --seed <seed> --cases <cases>
# and the campaign itself shrinks any caught divergence and writes it to
# results/fuzz/finding-<seed>-<i>.fuzzcase (see `hcapp fuzz --replay`).
# Knobs (all optional):
#   HCAPP_FUZZ_ROUNDS   campaign seeds to sweep            (default 4)
#   HCAPP_FUZZ_CASES    cases per campaign                 (default 128)
#   HCAPP_FUZZ_SEED0    first campaign seed                (default 1)
set -eu
cd "$(dirname "$0")/.."

ROUNDS="${HCAPP_FUZZ_ROUNDS:-4}"
CASES="${HCAPP_FUZZ_CASES:-128}"
SEED0="${HCAPP_FUZZ_SEED0:-1}"

cargo build --release -q -p hcapp-cli
HCAPP=./target/release/hcapp

mkdir -p results/fuzz
fail=0
i=0
while [ "$i" -lt "$ROUNDS" ]; do
    seed=$((SEED0 + i))
    log="results/fuzz/soak-seed$seed.log"
    echo "==> fuzz campaign seed=$seed cases=$CASES"
    if "$HCAPP" fuzz --seed "$seed" --cases "$CASES" > "$log"; then
        tail -n 1 "$log"
    else
        echo "campaign seed=$seed FAILED — log: $log" >&2
        fail=1
    fi
    i=$((i + 1))
done

if [ "$fail" -ne 0 ]; then
    echo "fuzz soak FAILED" >&2
    exit 1
fi
echo "fuzz soak passed: $ROUNDS campaign(s) x $CASES case(s), zero divergences"
