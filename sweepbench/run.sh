#!/usr/bin/env bash
# Builds the crp_experiments worker binary and the benchmark from source,
# then runs one benchmark pass:
#
#   bash sweepbench/run.sh --workload kernel-grid --seed 1 --seconds 20 --trace 0
#
# Run from the repository root.  Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); both binaries land in its release directory,
# where the fleet finds the worker next to the benchmark.  Cargo's own
# output goes to stderr, so the last stdout line is the benchmark's
# result.  `bash sweepbench/run.sh test` builds the worker and runs the
# benchmark's self-tests instead.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p crp-sim --bin crp_experiments >&2

if [[ "${1:-}" == "test" ]]; then
    exec cargo test --release --offline --manifest-path "$here/Cargo.toml" >&2
fi

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

if rev="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
    export SWEEPBENCH_REV="$rev"
else
    # Not a git checkout: fingerprint the sources instead.
    export SWEEPBENCH_REV="tree-$(cd "$root" && find Cargo.toml Cargo.lock crates vendor sweepbench/src \
        -type f -print0 2>/dev/null | sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)"
fi

exec "$CARGO_TARGET_DIR/release/sweepbench" "$@"
