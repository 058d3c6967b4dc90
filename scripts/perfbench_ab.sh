#!/bin/sh
# A/B the repository benchmark (BENCHMARK.json + perfbench/): a parent
# revision against the working tree, in alternating run pairs on one host.
#
# Usage: scripts/perfbench_ab.sh <parent-rev> <workload> [pairs] [seconds] [seed]
#   workload  paper3 | scaled256 | sweep
#   pairs     parent/change run pairs (default 5)
#   seconds   measurement seconds per run (default 10)
#   seed      perfbench --seed (default 1); confirm a claim on a seed the
#             change was not tuned on
#
# The parent is built from `git archive <parent-rev>` in a scratch
# directory, the change from the working tree, each into its own target
# directory. Odd pairs run the parent first, even pairs the change first,
# so a drift in host speed hits both sides. For every end-to-end metric of
# BENCHMARK.json the script prints each side's median and quartiles, the
# change/parent ratio of the medians, how many pairs the change won, and a
# verdict:
#   gain     the change won at least 9 in 10 of the pairs and its median is
#            better than the parent's by more than the parent's
#            interquartile range;
#   regress  the change's median is worse than the parent's by more than
#            the metric's "bound" in BENCHMARK.json (a fraction of the
#            parent's median);
#   unresolved  neither, but the parent's interquartile range is wider
#            than the bound, so the runs cannot tell a level metric from
#            a regression (unless every change run beats every parent
#            run);
#   —        neither, and the metric held within its bound.
# A run whose result line does not say "correct": true fails the script.
#
# PERFBENCH_AB_DIR=<dir> keeps the checkout and both builds there between
# invocations (default: a temporary directory removed on exit).
set -eu

if [ $# -lt 2 ]; then
    sed -n '5,10p' "$0" >&2
    exit 2
fi
parent=$1
workload=$2
pairs=${3:-5}
seconds=${4:-10}
seed=${5:-1}

cd "$(dirname "$0")/.."
root=$(pwd)
rev=$(git rev-parse --verify "$parent^{commit}")

if [ -n "${PERFBENCH_AB_DIR:-}" ]; then
    work=$PERFBENCH_AB_DIR
    mkdir -p "$work"
else
    work=$(mktemp -d "${TMPDIR:-/tmp}/perfbench_ab.XXXXXX")
    trap 'rm -rf "$work"' EXIT INT TERM
fi
# A kept build of another parent would look up to date to cargo (the
# archive's mtimes are the commit's), so start that side afresh.
if [ "$(cat "$work/parent.rev" 2>/dev/null || true)" != "$rev" ]; then
    rm -rf "$work/target-parent"
fi
rm -rf "$work/parent"
mkdir -p "$work/parent"
git archive "$rev" | tar -x -C "$work/parent"
echo "$rev" > "$work/parent.rev"

echo "==> building perfbench: parent $(git rev-parse --short "$rev"), change = working tree" >&2
CARGO_TARGET_DIR="$work/target-parent" cargo build --release --offline --quiet \
    --manifest-path "$work/parent/perfbench/Cargo.toml"
CARGO_TARGET_DIR="$work/target-change" cargo build --release --offline --quiet \
    --manifest-path "$root/perfbench/Cargo.toml"

results="$work/results.txt"
: > "$results"

# run <side> <pair>: one benchmark run from that side's tree root; appends
# "<side> <pair> <metric> <value>" lines to the results file.
run() {
    if [ "$1" = parent ]; then dir="$work/parent"; else dir=$root; fi
    line=$(cd "$dir" && "$work/target-$1/release/hcapp-perfbench" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
    case $line in
        *'"correct": true'*) ;;
        *) echo "$1 run of pair $2 failed: $line" >&2; exit 1 ;;
    esac
    echo "$line" | sed 's/"\([a-z_]*\)": {"value": \([^,]*\),/\n\1 \2\n/g' \
        | awk -v side="$1" -v pair="$2" 'NF == 2 && $1 ~ /^[a-z_]+$/ && $2 != "null" { print side, pair, $1, $2 }' \
        >> "$results"
    printf '  pair %s %-6s %s\n' "$2" "$1" "$line" >&2
}

echo "==> $pairs pairs of $seconds s on $workload, seed $seed" >&2
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$i"
        run change "$i"
    else
        run change "$i"
        run parent "$i"
    fi
    i=$((i + 1))
done

# The end-to-end metrics, their directions and bounds, from BENCHMARK.json.
directions=$(sed -n '/"end_to_end"/,/]/p' "$root/BENCHMARK.json" \
    | sed -n 's/.*"name": "\([a-z_]*\)".*"better": "\([a-z]*\)".*"bound": \([0-9.eE+-]*\).*/\1 \2 \3/p')

echo "$directions" | awk -v pairs="$pairs" -v workload="$workload" -v seconds="$seconds" -v seed="$seed" '
    function quantile(arr, n, q,    pos, lo, hi) {
        pos = q * (n - 1); lo = int(pos); hi = (pos > lo) ? lo + 1 : lo
        return arr[lo] + (arr[hi] - arr[lo]) * (pos - lo)
    }
    function sort(arr, n,    i, j, t) {
        for (i = 1; i < n; i++) {
            t = arr[i]
            for (j = i - 1; j >= 0 && arr[j] > t; j--) arr[j + 1] = arr[j]
            arr[j + 1] = t
        }
    }
    FILENAME == "-" { better[$1] = $2; bound[$1] = $3 + 0; order[++m] = $1; next }
    { v[$1, $2, $3] = $4 + 0 }
    END {
        printf "%s: %d pairs of %d s, seed %d\n", workload, pairs, seconds, seed
        printf "%-14s %-6s %27s %27s %7s %6s  %s\n", "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "wins", "verdict"
        for (k = 1; k <= m; k++) {
            name = order[k]; na = 0; nb = 0; wins = 0; both = 0
            for (p = 1; p <= pairs; p++) {
                ha = ((("parent", p, name) in v)); hb = ((("change", p, name) in v))
                if (ha) a[na++] = v["parent", p, name]
                if (hb) b[nb++] = v["change", p, name]
                if (ha && hb) {
                    both++
                    x = v["parent", p, name]; y = v["change", p, name]
                    if ((better[name] == "higher" && y > x) || (better[name] == "lower" && y < x)) wins++
                }
            }
            if (na == 0 || nb == 0) continue
            sort(a, na); sort(b, nb)
            ma = quantile(a, na, 0.5); mb = quantile(b, nb, 0.5)
            qa1 = quantile(a, na, 0.25); qa3 = quantile(a, na, 0.75)
            # The change minus the parent, signed so that positive is better.
            gap = (better[name] == "higher") ? mb - ma : ma - mb
            verdict = "—"
            if (both > 0 && wins * 10 >= 9 * both && gap > qa3 - qa1) verdict = "gain"
            else if (-gap > bound[name] * (ma < 0 ? -ma : ma)) verdict = "regress"
            else if (qa3 - qa1 > bound[name] * (ma < 0 ? -ma : ma)) {
                # The parent alone spreads wider than the bound, so a level
                # median says nothing unless the two sides do not overlap.
                apart = (better[name] == "higher") ? b[0] > a[na - 1] : b[nb - 1] < a[0]
                if (!apart) verdict = "unresolved"
            }
            printf "%-14s %-6s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %7.3f %3d/%-2d  %s\n", name, better[name], ma, qa1, qa3, mb, quantile(b, nb, 0.25), quantile(b, nb, 0.75), (ma != 0 ? mb / ma : 0), wins, both, verdict
        }
    }
' - "$results"
