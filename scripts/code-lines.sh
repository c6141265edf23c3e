#!/usr/bin/env bash
# Code-line table for simplicity PRs: per crate, the lines under src/ that
# are neither blank nor `//` comments, and the same count without test
# code. A column-0 `#[cfg(test)]` on an inline `mod` (the unit tests) and
# a file-level `#![cfg(test)]` (a test-only module) cut the file there.
# Any other column-0 `#[cfg(test)]` item drops just that item: a one-line
# item ending in `;` (`#[cfg(test)] mod grid;`), or an `impl`/`fn`/...
# through its closing column-0 `}`, so production code below it still
# counts. The third count, `pub`, is the public surface: the non-test
# lines that declare a `pub` (not `pub(crate)`) fn, struct, enum, const,
# trait, type, static, mod or use.
#
#   scripts/code-lines.sh                # every crate + workspace total
#   scripts/code-lines.sh FILE...        # the same three counts per file
#   scripts/code-lines.sh --against REV  # non-test and pub lines, REV's
#                                        # crates/ vs this tree: crate
#                                        # before after delta, then the
#                                        # same for pub
#
# --against reads REV's crates/ through `git archive` into a temp dir, so
# the "before" column needs no second checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

count() { grep -vcE '^\s*(//|$)' || true; }
count_pub() { grep -cE '^\s*pub (fn|struct|enum|const|trait|type|static|mod|use)\b' || true; }

# the file without its tests: cut at a column-0 `#[cfg(test)]` inline
# `mod` or at `#![cfg(test)]`; skip any other column-0 `#[cfg(test)]` item
# (state 1: after the attribute; state 2: inside a multi-line item)
non_test() {
    awk 'state == 2 { if (/^}/) state = 0; next }
         state == 1 {
             if (/^[[:space:]]*#\[/) next
             if (/;[[:space:]]*$/) { state = 0; next }
             if (/^(pub(\([a-z]+\))? )?mod /) exit
             state = /\{[[:space:]]*$/ ? 2 : 0
             next
         }
         /^#!\[cfg\(test\)\]/ { exit }
         /^#\[cfg\(test\)\]/ { state = 1; next }
         { print }' "$1"
}

# code / non-test code / pub lines of the given files, summed
counts() {
    local all=0 prod=0 pubs=0 f
    for f in "$@"; do
        all=$((all + $(count <"$f")))
        prod=$((prod + $(non_test "$f" | count)))
        pubs=$((pubs + $(non_test "$f" | count_pub)))
    done
    echo "$all $prod $pubs"
}

# code / non-test code / pub lines of one crate directory (0 0 0 when
# absent)
crate_counts() {
    local files=()
    [ -d "$1/src" ] && mapfile -t files < <(find "$1/src" -name '*.rs' | sort)
    counts "${files[@]}"
}

row() { printf '%-12s %8s %10s %6s\n' "$@"; }

if [ "${1:-}" = --against ]; then
    [ "$#" -eq 2 ] || { echo "usage: $0 --against REV" >&2; exit 2; }
    base="$(mktemp -d)"
    trap 'rm -rf "$base"' EXIT
    git archive "$2" crates | tar -x -C "$base"
    printf '%-12s %8s %8s %8s %8s %8s %8s\n' crate before after delta \
        pub-bef pub-aft pub-del
    tb=0 ta=0 pb=0 pa=0
    for name in $(find "$base/crates" crates -mindepth 1 -maxdepth 1 -type d -printf '%f\n' | sort -u); do
        read -r _ before pub_before < <(crate_counts "$base/crates/$name")
        read -r _ after pub_after < <(crate_counts "crates/$name")
        printf '%-12s %8s %8s %+8d %8s %8s %+8d\n' "$name" "$before" "$after" \
            $((after - before)) "$pub_before" "$pub_after" $((pub_after - pub_before))
        tb=$((tb + before)) ta=$((ta + after)) pb=$((pb + pub_before)) pa=$((pa + pub_after))
    done
    printf '%-12s %8s %8s %+8d %8s %8s %+8d\n' workspace "$tb" "$ta" $((ta - tb)) \
        "$pb" "$pa" $((pa - pb))
    exit
fi
if [ "$#" -gt 0 ]; then
    row file code non-test pub
    for f in "$@"; do
        row "$(basename "$f")" $(counts "$f")
    done
    exit
fi
row crate code non-test pub
total_all=0 total_prod=0 total_pub=0
for dir in crates/*/; do
    read -r all prod pubs < <(crate_counts "$dir")
    row "$(basename "$dir")" "$all" "$prod" "$pubs"
    total_all=$((total_all + all)) total_prod=$((total_prod + prod)) total_pub=$((total_pub + pubs))
done
row workspace "$total_all" "$total_prod" "$total_pub"
