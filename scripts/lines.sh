#!/bin/sh
# The figures ROADMAP's "Lines (after PR N)" paragraph quotes, the number
# of wire kinds, the variants of the two protocols' alphabets and states
# (`coord::Input`, `coord::Output`, `coord::Msg`, `coord::Part`,
# `RecoveryPhase`), the exemption budget (`#[expect(clippy::disallowed_methods`
# sites in `core` and `net`), the option count (the fields of `EngineConfig` and
# `FaultPlan`, the variants of `SchedulerKind`, and the environment
# switches: `env::var` / `env::var_os` reads in `core`, `net` and `atoms`)
# and the panic sites a clean `Err` would replace (`.unwrap(` / `.expect(`
# calls in those three), so that a simplicity PR's number is one command's
# output.
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

# Matches of the extended regex $1 in the files that follow, outside
# #[cfg(test)], cut as `outside_tests` cuts.
matches_outside_tests() {
    RE=$1
    shift
    RE=$RE awk 'function close_file() { total += cut ? upto[cut - 1] : upto[n] }
         FNR == 1 && NR > 1 { close_file() }
         FNR == 1 { n = 0; cut = 0; seen = 0; split("", upto) }
         { n = FNR; line = $0; seen += gsub(ENVIRON["RE"], "", line); upto[FNR] = seen }
         /^[[:space:]]*#!?\[cfg\(test\)\]/ { cut = FNR }
         END { close_file(); print total + 0 }' "$@"
}

# Items of `pub <kind> <Name> {` or `pub(crate) <kind> <Name> {` in a file:
# its `pub` fields or its variants.
members() {
    awk -v head="$2 {" '$0 == "pub " head || $0 == "pub(crate) " head { on = 1; next }
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
panics='\.(unwrap|expect)\('
for dir in $core $net $atoms; do
    printf '%-50s %6d\n' ".unwrap(/.expect( in $dir, non-test" "$(matches_outside_tests "$panics" $dir/*.rs)"
done
printf '%-50s %6d\n' ".unwrap(/.expect( in those three, non-test" \
    "$(matches_outside_tests "$panics" $core/*.rs $net/*.rs $atoms/*.rs)"
printf '%-50s %6d\n' ".unwrap(/.expect( in those three, with tests" \
    "$(cat $core/*.rs $net/*.rs $atoms/*.rs | grep -oE '\.(unwrap|expect)\(' | wc -l)"
# Every wire number with a name, as `kinds_are_pinned` counts them: the rows
# of the `kinds!` registry and the envelope kinds `kind_name` adds.
kinds=$(grep -cE '^ +[A-Z][A-Za-z]* = [^,]+, "[^"]+";$' $core/messages.rs)
envelopes=$(grep -c 'None if kind == graphlab_net::K_' $core/messages.rs)
printf '%-50s %6d\n' "wire kinds (kinds! rows + envelope kinds)" $((kinds + envelopes))
printf '%-50s %6d\n' "EngineConfig fields" "$(members $core/config.rs 'struct EngineConfig')"
printf '%-50s %6d\n' "FaultPlan fields" "$(members $net/fault.rs 'struct FaultPlan')"
printf '%-50s %6d\n' "SchedulerKind variants" "$(members $core/scheduler.rs 'enum SchedulerKind')"
printf '%-50s %6d\n' "coord::Input variants" "$(members $core/coord.rs 'enum Input')"
printf '%-50s %6d\n' "coord::Output variants" "$(members $core/coord.rs 'enum Output')"
printf '%-50s %6d\n' "coord::Msg variants" "$(members $core/coord.rs 'enum Msg')"
printf '%-50s %6d\n' "coord::Part variants" "$(members $core/coord.rs 'enum Part')"
printf '%-50s %6d\n' "RecoveryPhase variants" "$(members $core/recovery.rs 'enum RecoveryPhase')"
printf '%-50s %6d\n' "env::var/env::var_os reads in those three, non-test" \
    "$(matches_outside_tests 'env::var(_os)?\(' $core/*.rs $net/*.rs $atoms/*.rs)"
