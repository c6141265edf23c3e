#!/usr/bin/env bash
# Docs check: the prose that describes the repo names only what is in it.
# Over README.md, DESIGN.md, EXPERIMENTS.md and CONTRIBUTING.md:
#
# * every backticked repo path exists. A path is a word of a backticked
#   span that holds a `/` and either starts with a top-level entry of the
#   repo or ends in a file extension; a `::item` or `:LINE` suffix is
#   dropped, globs are expanded, and build outputs (`target/…`) and
#   absolute paths are not checked;
# * every `DESIGN.md §N` names a numbered heading of DESIGN.md (`## N.`);
# * no ROADMAP item number is cited (`ROADMAP 6`, `ROADMAP item 6`,
#   `ROADMAP step 10(b)`): item numbers change whenever the roadmap is
#   re-planned, so a doc cites an item's title instead.
#
# `benchmark/README.md` and the history files (ROADMAP.md, CHANGES.md,
# PAPER*.md, SNIPPETS.md) are not checked. Prints each finding as
# `FILE:LINE: message` and exits 1 if there is any.
#
#   scripts/docs-check.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

docs=(README.md DESIGN.md EXPERIMENTS.md CONTRIBUTING.md)
found=0

# Every match of the extended regex RE in each file, as `FILE:LINE: MATCH`.
# A file is scanned as one string, its lines joined by a space, so a match
# may span a line break; it is reported at the line it starts on.
matches() {
    local re="$1"
    shift
    awk -v re="$re" '
        function scan(   rest, at, line, found) {
            rest = text
            at = 0
            while (match(rest, re)) {
                line = 1
                while (line < lines && start[line + 1] <= at + RSTART) line++
                found = substr(rest, RSTART, RLENGTH)
                gsub(/[[:space:]]+/, " ", found)
                print file ":" line ": " found
                at += RSTART + RLENGTH - 1
                rest = substr(rest, RSTART + RLENGTH)
            }
        }
        FNR == 1 {
            if (NR > 1) scan()
            file = FILENAME
            text = ""
            lines = 0
        }
        {
            start[++lines] = length(text) + 1
            text = text $0 " "
        }
        END { if (NR > 0) scan() }
    ' "$@"
}

# 1. Backticked paths.
while IFS= read -r found_at; do
    where="${found_at%%: *}"
    word="${found_at#*: }"
    path="${word%%::*}"
    path="${path%:[0-9]*}"
    case "$path" in
    /* | target/*) continue ;;
    esac
    if [[ ! -e "${path%%/*}" && ! "$path" =~ \.[A-Za-z]+$ ]]; then
        continue
    fi
    if ! compgen -G "$path" >/dev/null; then
        echo "$where: \`$word\` names no file or directory of the repo"
        found=1
    fi
done < <(grep -noE '`[^`]+`' "${docs[@]}" | awk '{
    where = $0
    sub(/: ?`.*/, "", where)
    span = $0
    sub(/^[^`]*`/, "", span)
    sub(/`$/, "", span)
    n = split(span, words, /[[:space:]]+/)
    for (i = 1; i <= n; i++) if (words[i] ~ /\//) print where ": " words[i]
}')

# 2. DESIGN.md section references.
sections=$(sed -nE 's/^## ([0-9]+[a-z]*)\. .*/§\1/p' DESIGN.md | tr '\n' ' ')
while IFS= read -r found_at; do
    section="§${found_at##*§}"
    if [[ " $sections" != *" $section "* ]]; then
        echo "${found_at%%: *}: \`${found_at#*: }\` names no heading (DESIGN.md has ${sections% })"
        found=1
    fi
done < <(matches 'DESIGN(\.md)?[[:space:]]+§[0-9]+[a-z]*' "${docs[@]}")

# 3. ROADMAP item numbers.
while IFS= read -r found_at; do
    echo "${found_at%%: *}: \`${found_at#*: }\` cites a ROADMAP item by number; cite its title"
    found=1
done < <(matches "ROADMAP('s)?[[:space:]]+((items?|steps?)[[:space:]]+)?[0-9]+(\([a-z]\))?" "${docs[@]}")

exit "$found"
