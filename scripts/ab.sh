#!/bin/sh
# A/B one glbench workload: the frozen glbench of revision REV against the
# glbench of this checkout (its working tree, uncommitted edits included),
# in alternating pairs of single-workload `glbench run`s.
#
#   scripts/ab.sh REV WORKLOAD [PAIRS]      PAIRS defaults to 10
#
# REV is exported with `git archive` into a temporary directory outside the
# repository and built there; this checkout builds into `glbench/target`.
# Pair i runs REV first when i is odd and this checkout first when it is
# even, so neither side always meets a warmer host. Each run takes
# glbench's default seed and seconds, as the benchmark's driver does.
#
# For every end-to-end metric (`glbench list`) it prints each side's median
# and quartiles over the pairs, and the pairs each side won (ties count for
# neither); then each side's failed reps. It edits neither glbench nor
# BENCHMARK.json. Needs only git, tar, cargo and awk.
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 REV WORKLOAD [PAIRS]" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=${3:-10}
case $pairs in
    '' | *[!0-9]* | 0) echo "$0: PAIRS must be a positive integer" >&2; exit 2 ;;
esac

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/glbench-ab.XXXXXX")
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM

sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
mkdir "$work/base"
git -C "$root" archive "$sha" | tar -x -C "$work/base"

build() { # manifest directory, target directory
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet --manifest-path "$1/glbench/Cargo.toml"
}
echo "building glbench at $rev ($sha)" >&2
build "$work/base" "$work/base-target"
echo "building glbench of this checkout" >&2
build "$root" "$root/glbench/target"
base_bin=$work/base-target/release/glbench
head_bin=$root/glbench/target/release/glbench

"$head_bin" list | awk '$1 == "end_to_end" { print $2, $4 }' > "$work/metrics"

run() { # side, pair
    bin=$base_bin
    [ "$1" = head ] && bin=$head_bin
    # A run with no successful rep exits non-zero and prints no table.
    "$bin" run --workload "$workload" > "$work/$1-$2.out" || echo "$1 run of pair $2 failed" >&2
}
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then first=base second=head; else first=head second=base; fi
    echo "pair $i/$pairs: $first first" >&2
    run $first $i
    run $second $i
    i=$((i + 1))
done

# One row per run and metric: side, pair, metric, value; then the summary.
for side in base head; do
    i=1
    while [ "$i" -le "$pairs" ]; do
        awk -v side=$side -v pair=$i -v wl="$workload" '
            $1 == wl && NF >= 4 { print side, pair, $2, $3 }
            $1 == wl && $2 == "runs_failed/runs_attempted" { print side, pair, "runs", $3 }' \
            "$work/$side-$i.out"
        i=$((i + 1))
    done
done > "$work/rows"

awk -v rev="$rev" -v wl="$workload" -v pairs="$pairs" '
    function sort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    # Linear interpolation between order statistics, at fraction p.
    function quantile(a, n, p,    h, lo) {
        h = (n - 1) * p + 1
        lo = int(h)
        return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    FILENAME == ARGV[1] { better[$1] = $2; order[++metrics] = $1; next }
    $3 == "runs" { split($4, fa, "/"); failed[$1] += fa[1]; attempted[$1] += fa[2]; next }
    ($3 in better) { v[$1, $3, $2] = $4 }
    END {
        printf "%s: %s (base) against this checkout (head), %d alternating pairs\n", wl, rev, pairs
        printf "%-22s %-6s %14s %14s %14s %6s\n", "metric", "side", "q1", "median", "q3", "won"
        for (m = 1; m <= metrics; m++) {
            name = order[m]
            won["base"] = won["head"] = 0
            for (p = 1; p <= pairs; p++) {
                b = v["base", name, p]; h = v["head", name, p]
                if (b == "" || h == "" || b == h) continue
                if ((better[name] == "lower") == (b + 0 < h + 0)) won["base"]++; else won["head"]++
            }
            for (s = 0; s < 2; s++) {
                side = s ? "head" : "base"
                n = 0
                for (p = 1; p <= pairs; p++) if (v[side, name, p] != "") a[++n] = v[side, name, p] + 0
                if (n == 0) { printf "%-22s %-6s %14s\n", name, side, "no value"; continue }
                sort(a, n)
                printf "%-22s %-6s %14.6g %14.6g %14.6g %6d\n", name, side,
                    quantile(a, n, 0.25), quantile(a, n, 0.5), quantile(a, n, 0.75), won[side]
            }
        }
        printf "failed reps: base %d of %d, head %d of %d\n",
            failed["base"], attempted["base"], failed["head"], attempted["head"]
    }' "$work/metrics" "$work/rows"
