#!/usr/bin/env bash
# Unused-dependency check: for every crates/*/Cargo.toml, each
# `[dependencies]` entry's crate ident (`-` spelt `_`) must appear as a
# word somewhere in that crate's src/. A dependency only tests, examples or
# benches use belongs under `[dev-dependencies]`, which is not checked.
# Prints each unused entry and exits 1 if there is any.
#
#   scripts/unused-deps.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

unused=0
for manifest in crates/*/Cargo.toml; do
    dir="$(dirname "$manifest")"
    for dep in $(awk '/^\[/ { in_deps = ($0 == "[dependencies]"); next }
                      in_deps && /^[A-Za-z0-9_-]+[[:space:]]*(=|\.)/ {
                          sub(/[[:space:]]*(=|\.).*/, ""); print
                      }' "$manifest"); do
        ident="${dep//-/_}"
        if ! grep -rqw --include='*.rs' "$ident" "$dir/src"; then
            echo "$manifest: \`$dep\` is a [dependencies] entry but $dir/src never names \`$ident\`"
            unused=1
        fi
    done
done
exit "$unused"
