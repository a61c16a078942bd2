#!/bin/sh
# The figures ROADMAP's "Lines (after PR N)" paragraph quotes, the
# exemption budget (`#[expect(clippy::disallowed_methods` sites in `core`
# and `net`), the option count (the fields of `EngineConfig` and
# `FaultPlan`, the variants of `SchedulerKind`) and the panic sites a
# clean `Err` would replace (`.unwrap(` / `.expect(` calls in `core`, `net`
# and `atoms`), so that a simplicity PR's number is one command's output.
# Run from anywhere: `scripts/lines.sh [repo root]`. "Outside #[cfg(test)]" counts each file
# up to, not including, its last `#[cfg(test)]` or `#![cfg(test)]` line (the unit-test module
# closes every file that has one); a file with none counts whole.
set -eu
cd "${1:-$(dirname "$0")/..}"
core=crates/core/src
net=crates/net/src
atoms=crates/atoms/src

outside_tests() {
    awk 'FNR == 1 { total += cut ? cut - 1 : n; n = 0; cut = 0 }
         { n = FNR }
         /^[[:space:]]*#!?\[cfg\(test\)\]/ { cut = FNR }
         END { print total + (cut ? cut - 1 : n) }' "$@"
}

# `.unwrap(` and `.expect(` calls outside #[cfg(test)], cut as `outside_tests` cuts.
panics_outside_tests() {
    awk 'function close_file() { total += cut ? upto[cut - 1] : upto[n] }
         FNR == 1 && NR > 1 { close_file() }
         FNR == 1 { n = 0; cut = 0; seen = 0; split("", upto) }
         { n = FNR; line = $0; seen += gsub(/\.(unwrap|expect)\(/, "", line); upto[FNR] = seen }
         /^[[:space:]]*#!?\[cfg\(test\)\]/ { cut = FNR }
         END { close_file(); print total + 0 }' "$@"
}

# Items of `pub <kind> <Name> {` in a file: its `pub` fields or its variants.
members() {
    awk -v head="pub $2 {" '$0 == head { on = 1; next }
         on && /^}/ { exit }
         on && /^    (pub |[A-Z])/ { n++ }
         END { print n + 0 }' "$1"
}

for dir in $core $net; do
    printf '%-50s %6d\n' "$dir total" "$(cat $dir/*.rs | wc -l)"
    printf '%-50s %6d\n' "$dir outside #[cfg(test)]" "$(outside_tests $dir/*.rs)"
done
for f in chromatic coord locking recovery; do
    printf '%-50s %6d\n' "$core/$f.rs" "$(wc -l < $core/$f.rs)"
    printf '%-50s %6d\n' "$core/$f.rs outside #[cfg(test)]" "$(outside_tests $core/$f.rs)"
done
printf '%-50s %6d\n' "disallowed_methods #[expect]s in core + net" \
    "$(cat $core/*.rs $net/*.rs | grep -c '#\[expect(clippy::disallowed_methods')"
printf '%-50s %6d\n' "Rust under crates src tests examples" \
    "$(find crates src tests examples -name '*.rs' -exec cat {} + | wc -l)"
for dir in $core $net $atoms; do
    printf '%-50s %6d\n' ".unwrap(/.expect( in $dir, non-test" "$(panics_outside_tests $dir/*.rs)"
done
printf '%-50s %6d\n' ".unwrap(/.expect( in those three, non-test" \
    "$(panics_outside_tests $core/*.rs $net/*.rs $atoms/*.rs)"
printf '%-50s %6d\n' ".unwrap(/.expect( in those three, with tests" \
    "$(cat $core/*.rs $net/*.rs $atoms/*.rs | grep -oE '\.(unwrap|expect)\(' | wc -l)"
printf '%-50s %6d\n' "EngineConfig fields" "$(members $core/config.rs 'struct EngineConfig')"
printf '%-50s %6d\n' "FaultPlan fields" "$(members $net/fault.rs 'struct FaultPlan')"
printf '%-50s %6d\n' "SchedulerKind variants" "$(members $core/scheduler.rs 'enum SchedulerKind')"
