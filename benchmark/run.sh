#!/usr/bin/env bash
# perfladder, the repo's benchmark: build the harness (this directory's own
# cargo workspace) and the daemon (the root workspace's `matchd`), then run.
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--smoke]
#
# Prints every metric by name with its unit, writes benchmark/out/results.json,
# verifies outputs, and exits non-zero on any correctness failure. A
# single-workload run ends with one JSON line: correct, attempted, failed,
# metrics. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds; a relative CARGO_TARGET_DIR means
# relative to where the caller stands, so pin it before cargo resolves it
# against each manifest.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p com-serve --bin matchd

exec "$target/release/perfladder" run \
    --matchd "$target/release/matchd" --out "$here/out" "$@"
