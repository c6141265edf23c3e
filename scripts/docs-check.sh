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
# And over README.md and CONTRIBUTING.md:
#
# * every command line that runs one of the six binaries passes only flags
#   that binary's `--help` lists (`--help` itself aside). A command line is
#   a line of a fenced code block, `\`-continued lines joined, or a
#   backticked span; the binary is named after `--bin NAME --`, or as a
#   word (`./target/release/NAME` too) that does not follow a flag. Its
#   flags end at `|`, `&&`, `||`, `;` or a closing `'`. The binaries are
#   read from `$CARGO_TARGET_DIR/release` (default `target/release`), so
#   run `cargo build --release` first.
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

# 4. Flags of the six binaries' command lines.
bins="simulate repro matchd matchload matchreplay matchfed"
release="${CARGO_TARGET_DIR:-target}/release"
declare -A usage
for bin in $bins; do
    if ! usage[$bin]="$("$release/$bin" --help 2>&1)"; then
        echo "docs-check: \`$release/$bin --help\` failed; run \`cargo build --release\` first" >&2
        exit 2
    fi
done
while read -r where bin flag; do
    if [[ "$flag" != --help && ! "${usage[$bin]}" =~ (^|[^A-Za-z0-9-])"$flag"([^A-Za-z0-9-]|$) ]]; then
        echo "$where \`$bin $flag\`: \`$bin --help\` lists no \`$flag\`"
        found=1
    fi
done < <(awk -v bins="$bins" '
    BEGIN { n = split(bins, list, " "); for (i = 1; i <= n; i++) bin[list[i]] = 1 }
    # Print `FILE:LINE: BIN FLAG` for every flag of every binary run in
    # TEXT, which starts at FILE:LINE.
    function commands(text, file, line,   t, n, i, word, name, current) {
        n = split(text, t, /[[:space:]]+/)
        current = ""
        for (i = 1; i <= n; i++) {
            word = t[i]
            if (word == "--bin" && (t[i + 1] in bin)) {
                # Cargo flags run up to `--`, the binary flags after it.
                current = t[i + 1]
                for (i += 2; i <= n && t[i] != "--"; i++) {}
                continue
            }
            name = word
            sub(/^[\047"]+/, "", name)
            sub(/^.*\//, "", name)
            if ((name in bin) && !(i > 1 && t[i - 1] ~ /^--/)) {
                current = name
                continue
            }
            if (current == "") continue
            if (word == "|" || word == "||" || word == "&&" || word == ";") {
                current = ""
                continue
            }
            sub(/^[\047"]+/, "", word)
            if (match(word, /^--[a-z][a-z0-9-]*/))
                print file ":" line ": " current " " substr(word, 1, RLENGTH)
            if (t[i] ~ /\047$/) current = ""
        }
    }
    # The backticked spans of the paragraph held in `para`, each at the
    # line it starts on.
    function spans(   rest, at, l, from, len) {
        rest = para
        at = 0
        while (match(rest, /`[^`]+`/)) {
            from = RSTART
            len = RLENGTH
            for (l = plines; l > 1 && pstart[l] > at + from; l--) {}
            commands(substr(rest, from + 1, len - 2), pfile, pline + l - 1)
            at += from + len - 1
            rest = substr(rest, from + len)
        }
        para = ""
        plines = 0
    }
    FNR == 1 { spans(); fenced = 0; held = "" }
    /^[[:space:]]*```/ { spans(); fenced = !fenced; next }
    fenced {
        if (held == "") hline = FNR
        held = held " " $0
        if (sub(/\\$/, "", held)) next
        commands(held, FILENAME, hline)
        held = ""
        next
    }
    /^[[:space:]]*$/ { spans(); next }
    {
        if (plines == 0) { pfile = FILENAME; pline = FNR }
        pstart[++plines] = length(para) + 1
        para = para $0 " "
    }
    END { spans() }
' README.md CONTRIBUTING.md)

exit "$found"
