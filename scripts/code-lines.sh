#!/usr/bin/env bash
# Code-line table for simplicity PRs: per crate, the lines under src/ that
# are neither blank nor `//` comments, and the same count with each file
# cut at its first module-level `#[cfg(test)]` (i.e. without unit tests).
# A `#[cfg(test)]` on a one-line item ending in `;` (`#[cfg(test)] mod
# grid;`) drops just those two lines instead of cutting the file.
#
#   scripts/code-lines.sh                # every crate + workspace total
#   scripts/code-lines.sh FILE...        # the same two counts per file
#   scripts/code-lines.sh --against REV  # non-test lines, REV's crates/ vs
#                                        # this tree: crate before after delta
#
# --against reads REV's crates/ through `git archive` into a temp dir, so
# the "before" column needs no second checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

count() { grep -vcE '^\s*(//|$)' || true; }

# the file without its tests: cut at the first module-level `#[cfg(test)]`
# that is not on a one-line item
non_test() {
    awk 'held { held = 0; if (/;[[:space:]]*$/) next; exit }
         /^#\[cfg\(test\)\]/ { held = 1; next }
         { print }' "$1"
}

# code / non-test code lines of the given files, summed
pair() {
    local all=0 prod=0 f
    for f in "$@"; do
        all=$((all + $(count <"$f")))
        prod=$((prod + $(non_test "$f" | count)))
    done
    echo "$all $prod"
}

# code / non-test code lines of one crate directory (0 0 when absent)
crate_pair() {
    local files=()
    [ -d "$1/src" ] && mapfile -t files < <(find "$1/src" -name '*.rs' | sort)
    pair "${files[@]}"
}

row() { printf '%-12s %8s %10s\n' "$@"; }

if [ "${1:-}" = --against ]; then
    [ "$#" -eq 2 ] || { echo "usage: $0 --against REV" >&2; exit 2; }
    base="$(mktemp -d)"
    trap 'rm -rf "$base"' EXIT
    git archive "$2" crates | tar -x -C "$base"
    printf '%-12s %8s %8s %8s\n' crate before after delta
    total_before=0 total_after=0
    for name in $(find "$base/crates" crates -mindepth 1 -maxdepth 1 -type d -printf '%f\n' | sort -u); do
        read -r _ before < <(crate_pair "$base/crates/$name")
        read -r _ after < <(crate_pair "crates/$name")
        printf '%-12s %8s %8s %+8d\n' "$name" "$before" "$after" $((after - before))
        total_before=$((total_before + before)) total_after=$((total_after + after))
    done
    printf '%-12s %8s %8s %+8d\n' workspace "$total_before" "$total_after" \
        $((total_after - total_before))
    exit
fi
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
    read -r all prod < <(crate_pair "$dir")
    row "$(basename "$dir")" "$all" "$prod"
    total_all=$((total_all + all)) total_prod=$((total_prod + prod))
done
row workspace "$total_all" "$total_prod"
