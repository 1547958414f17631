#!/usr/bin/env bash
# The one command of the o2-suite benchmark.
#
#   benchmark/run.sh [--seed N] [--seconds S]
#       every workload, untraced then traced, each in its own process;
#       prints every metric and check, writes benchmark/out/results.json
#       and benchmark/out/trace.json, exits non-zero if any check failed.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of standard output is the
#       result object BENCHMARK.json's contract describes.
#
# Run it from the root of the checkout. It builds offline, in release,
# into $CARGO_TARGET_DIR (benchmark/target when unset) and writes nowhere
# else but benchmark/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Build settings move speed without moving code, and profiles are read
# only from the manifest a build starts at: refuse to measure unless this
# package's [profile.release] is the root manifest's, key for key.
profile_of() {
    awk '/^\[profile\.release\]/ { on = 1; next }
         /^\[/                   { on = 0 }
         on && /^[a-z]/          { gsub(/[ \t]/, ""); print }' "$1" | sort
}
if [ "$(profile_of "$root/Cargo.toml")" != "$(profile_of "$here/Cargo.toml")" ]; then
    echo "benchmark/Cargo.toml's [profile.release] differs from the root manifest's:" >&2
    diff <(profile_of "$root/Cargo.toml") <(profile_of "$here/Cargo.toml") >&2 || true
    exit 1
fi

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

export O2_BENCH_OUT="$here/out"
O2_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
O2_BENCH_GIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export O2_BENCH_RUSTC O2_BENCH_GIT
exec "${CARGO_TARGET_DIR:-$here/target}/release/o2-benchmark" "$@"
