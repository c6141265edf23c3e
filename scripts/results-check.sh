#!/usr/bin/env bash
# Hold the committed paper artefacts: regenerate all nine experiments and
# diff each results/*.json against its fresh twin. Only wall-clock cells
# are excluded — every "response_ms" line and Fig. 5's top-level
# "response" series; everything else is a function of the committed seed
# and must match byte for byte at any thread count.
#
#   scripts/results-check.sh [extra repro flags, e.g. --threads 1]
#
# After an intended change: `repro all --threads 0 --strict --out results`
# and update EXPERIMENTS.md from the regenerated tables.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run -q --release -p com-bench --bin repro -- \
    all --threads 0 --strict --out "$tmp" "$@" >/dev/null

decided() {
    awk '/^  "response": \{$/ { skip = 1 }
         !skip && !/"response_ms"/
         skip && /^  \},?$/ { skip = 0 }' "$1"
}

status=0
for f in table5 table6 table7 table5x30 fig5r fig5w fig5rad cr ablation; do
    test -s "$tmp/$f.json" || { echo "repro wrote no $f.json"; exit 1; }
    test -s "results/$f.json" || { echo "missing results/$f.json"; exit 1; }
    if ! diff <(decided "results/$f.json") <(decided "$tmp/$f.json") >"$tmp/$f.diff"; then
        echo "results/$f.json is stale (< committed, > regenerated):"
        cat "$tmp/$f.diff"
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "results/: all 9 artefacts reproduce (wall-clock cells excluded)"
exit "$status"
