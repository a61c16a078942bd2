#!/bin/sh
# Flaky-test census: runs every workspace test whose name contains FILTER
# N times in release, first one test process at a time and by exact name,
# then the matching set N times as whole binaries (the binary's own test
# threads, since load is part of what flips a verdict).
#
#   scripts/flaky.sh N [FILTER]      FILTER defaults to every test
#
# For each test it prints the pass count of both passes and, for each
# failure, the run and the first panic line of its output. A test is
# named by its binary (`engines`, `graphlab_core` for a crate's unit
# tests) and its path; doctests are not run. Ignored tests are skipped.
# Each binary runs from its package's directory, as `cargo test` runs it.
# Exits non-zero when any run failed. Needs only cargo and awk.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 N [FILTER]" >&2
    exit 2
fi
n=$1
filter=${2:-}
case $n in
    '' | *[!0-9]* | 0) echo "$0: N must be a positive integer" >&2; exit 2 ;;
esac

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/flaky.XXXXXX")
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM
start=$(date +%s)

echo "building the workspace's tests in release" >&2
# One line per test binary: its path, then its package's directory.
cargo test --release --offline --workspace --no-run --message-format=json \
    --manifest-path "$root/Cargo.toml" 2>/dev/null |
    awk '/"reason":"compiler-artifact"/ && /"executable":"/ && /"test":true/ {
             exe = $0; sub(/.*"executable":"/, "", exe); sub(/".*/, "", exe)
             dir = $0; sub(/.*"manifest_path":"/, "", dir); sub(/\/Cargo\.toml".*/, "", dir)
             print exe, dir
         }' > "$work/binaries"

# The first panic line of a test's output on stdin, with its message when
# the message is on the next line.
first_panic() {
    awk '/panicked at/ { line = $0; getline more; if (more !~ /^note:/) line = line " " more; print line; found = 1; exit }
         END { if (!found) print "(no panic line)" }'
}

: > "$work/tests"
while read -r exe dir; do
    bin=$(basename "$exe" | sed 's/-[0-9a-f]*$//')
    (cd "$dir" && "$exe" --list --ignored 2>/dev/null) | awk '/: test$/ { sub(/: test$/, ""); print }' > "$work/ignored"
    (cd "$dir" && "$exe" --list 2>/dev/null) |
        awk -v f="$filter" '/: test$/ { sub(/: test$/, ""); if (index($0, f)) print }' |
        while read -r name; do
            grep -qxF "$name" "$work/ignored" || echo "$exe $dir $bin $name"
        done >> "$work/tests"
done < "$work/binaries"
total=$(wc -l < "$work/tests")
echo "$total tests match \"$filter\"; $n runs each, exact then whole binaries" >&2

# Pass 1: one process a test, by exact name.
failed=0
i=0
while read -r exe dir bin name; do
    i=$((i + 1))
    pass=0 run=1
    : > "$work/fail-$i"
    while [ "$run" -le "$n" ]; do
        if (cd "$dir" && CARGO_MANIFEST_DIR=$dir "$exe" --exact "$name" --test-threads=1 < /dev/null) > "$work/out" 2>&1; then
            pass=$((pass + 1))
        else
            failed=1
            echo "    exact run $run: $(first_panic < "$work/out")" >> "$work/fail-$i"
        fi
        run=$((run + 1))
    done
    echo "$pass" > "$work/exact-$i"
done < "$work/tests"

# Pass 2: every binary with a matching test, whole, N times; each test's
# verdict read from libtest's `test NAME ... ok` lines and its panic from
# the `---- NAME stdout ----` section.
cut -d' ' -f1,2 "$work/tests" | sort -u > "$work/matched"
: > "$work/binary-results"
run=1
while [ "$run" -le "$n" ]; do
    while read -r exe dir; do
        (cd "$dir" && CARGO_MANIFEST_DIR=$dir "$exe" "$filter" < /dev/null) > "$work/out" 2>&1 || failed=1
        awk -v exe="$exe" -v run="$run" 'BEGIN { OFS = "\t" }
            /^test .* \.\.\. / { name = $0; sub(/^test /, "", name); sub(/ \.\.\. .*/, "", name); sub(/ - should panic$/, "", name)
                                  print exe, "verdict", name, ($NF == "ok" ? "ok" : "fail") }
            /^---- .* stdout ----$/ { sect = $0; sub(/^---- /, "", sect); sub(/ stdout ----$/, "", sect); next }
            sect != "" && /panicked at/ { line = $0; getline more; if (more !~ /^note:/) line = line " " more
                                          print exe, "panic", sect, "    binary run " run ": " line; sect = "" }
        ' "$work/out" >> "$work/binary-results"
    done < "$work/matched"
    run=$((run + 1))
done

i=0
while read -r exe dir bin name; do
    i=$((i + 1))
    ok=$(awk -F '\t' -v exe="$exe" -v name="$name" '$1 == exe && $2 == "verdict" && $3 == name && $4 == "ok" { c++ } END { print c + 0 }' "$work/binary-results")
    echo "$bin::$name  exact $(cat "$work/exact-$i")/$n  binary $ok/$n"
    cat "$work/fail-$i"
    awk -F '\t' -v exe="$exe" -v name="$name" '$1 == exe && $2 == "panic" && $3 == name { print $4 }' "$work/binary-results"
done < "$work/tests"
echo "wall time $(($(date +%s) - start)) s"
exit "$failed"
