#!/usr/bin/env bash
# Code-line table for simplicity PRs: per crate, the lines under src/ that
# are neither blank nor `//` comments, and the same count with each file
# cut at its first module-level `#[cfg(test)]` (i.e. without unit tests).
#
#   scripts/code-lines.sh            # every crate + workspace total
#   scripts/code-lines.sh FILE...    # the same two counts per file
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

count() { grep -vcE '^\s*(//|$)' || true; }

# code / non-test code lines of the given files, summed
pair() {
    local all=0 prod=0 f
    for f in "$@"; do
        all=$((all + $(count <"$f")))
        prod=$((prod + $(sed '/^#\[cfg(test)\]/,$d' "$f" | count)))
    done
    echo "$all $prod"
}

row() { printf '%-12s %8s %10s\n' "$@"; }

if [ "$#" -gt 0 ]; then
    row file code non-test
    for f in "$@"; do
        row "$(basename "$f")" $(pair "$f")
    done
    exit
fi
row crate code non-test
total_all=0 total_prod=0
for dir in crates/*/; do
    mapfile -t files < <(find "$dir/src" -name '*.rs' | sort)
    read -r all prod < <(pair "${files[@]}")
    row "$(basename "$dir")" "$all" "$prod"
    total_all=$((total_all + all)) total_prod=$((total_prod + prod))
done
row workspace "$total_all" "$total_prod"
