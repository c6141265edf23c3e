#!/usr/bin/env bash
# Before/after pairs from the repo benchmark, as CONTRIBUTING.md's
# "Performance changes" asks for them: a parent commit against this working
# tree, alternating which side runs first, one `perfladder compare` table.
#
#   scripts/bench-pair.sh [--parent REF] [--pairs N] [--workload NAME|all]
#                         [--claim METRIC@WORKLOAD]
#                         [-- extra benchmark/run.sh flags]
#
# REF defaults to HEAD~1, N to 10, the workload to all. The parent is a
# detached `git worktree` of REF under a temp dir with its own
# CARGO_TARGET_DIR there (so the first pair pays one cold build); the change
# builds where benchmark/run.sh always does ($CARGO_TARGET_DIR, default
# benchmark/target). Pair i runs both sides with `--seed $((1500 + i))`.
# Every results.json and run log is kept under target/bench-pair/; the
# worktree is removed on exit, and benchmark/Cargo.lock is restored if it
# was clean and a build rewrote it. Exits with compare's status (1 on any
# `worse`), or 1 as soon as a run fails its own correctness gate.
#
# A gain is accepted on pairs won, which compare's medians and quartiles do
# not show: `--claim engine_events_per_s@city_ramcom` adds, after the table,
# one `seed parent change ratio` line per pair for that row (read back from
# the kept logs; ratio = change / parent) and a closing
# `pairs won k/n, ratio min–median–max`. A pair is won on the side
# BENCHMARK.json calls better for the metric; ties count for neither.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

parent="HEAD~1" pairs=10 workload=all claim=""
while [ "$#" -gt 0 ]; do
    case "$1" in
        --parent | --pairs | --workload | --claim)
            [ "$#" -ge 2 ] || { echo "$0: $1 needs a value" >&2; exit 2; }
            declare "${1#--}=$2"
            shift 2
            ;;
        --) shift; break ;;
        *)
            echo "usage: $0 [--parent REF] [--pairs N] [--workload NAME|all] [--claim METRIC@WORKLOAD] [-- run.sh flags]" >&2
            exit 2
            ;;
    esac
done

change_target="${CARGO_TARGET_DIR:-$root/benchmark/target}"
case "$change_target" in /*) ;; *) change_target="$PWD/$change_target" ;; esac
out="$root/target/bench-pair"
rm -rf "$out"
mkdir -p "$out"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/bench-pair-XXXXXX")"
lock_was_clean=0
git -C "$root" diff --quiet -- benchmark/Cargo.lock && lock_was_clean=1
cleanup() {
    git -C "$root" worktree remove --force "$tmp/parent" 2>/dev/null || true
    rm -rf "$tmp"
    if [ "$lock_was_clean" -eq 1 ]; then
        git -C "$root" checkout -q -- benchmark/Cargo.lock
    fi
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$tmp/parent" "$parent"

# run SIDE PAIR [run.sh flags]
run() {
    local side="$1" i="$2" checkout="$root" target="$change_target"
    shift 2
    if [ "$side" = parent ]; then
        checkout="$tmp/parent" target="$tmp/target"
    fi
    if ! (cd "$checkout" && CARGO_TARGET_DIR="$target" bash benchmark/run.sh \
        --workload "$workload" --seed $((1500 + i)) "$@") >"$out/$side$i.log" 2>&1; then
        tail -n 20 "$out/$side$i.log" >&2
        echo "$0: $side run $i failed (log: $out/$side$i.log)" >&2
        exit 1
    fi
    cp "$checkout/benchmark/out/results.json" "$out/$side$i.json"
    echo "pair $i/$pairs $side: $(grep '^summary:' "$out/$side$i.log")"
}

for i in $(seq 1 "$pairs"); do
    sides=(parent change)
    [ $((i % 2)) -eq 1 ] || sides=(change parent)
    for side in "${sides[@]}"; do
        run "$side" "$i" "$@"
    done
done

status=0
"$change_target/release/perfladder" compare "$out"/parent*.json -- "$out"/change*.json || status=$?

if [ -n "$claim" ]; then
    metric="${claim%@*}" on="${claim#*@}"
    better="$(awk -v name="\"$metric\"," '
        $1 == "\"name\":" { hit = ($2 == name) }
        hit && $1 == "\"better\":" { gsub(/[",]/, "", $2); print $2; exit }' "$root/BENCHMARK.json")"
    # METRIC's value in WORKLOAD's section of one run log.
    value() {
        awk -v metric="$metric" -v on="$on" '
            $1 == "==" { here = ($2 == on) }
            here && $1 == metric { print $2; exit }' "$1"
    }
    rows="$(for i in $(seq 1 "$pairs"); do
        echo "$((1500 + i)) $(value "$out/parent$i.log") $(value "$out/change$i.log")"
    done | awk 'NF == 3 { printf "%s %s %s %.3f\n", $1, $2, $3, $3 / $2 }')"
    echo
    echo "claim $claim (better: ${better:-higher}) — seed parent change ratio"
    echo "$rows"
    echo "$rows" | sort -n -k4 | awk -v better="${better:-higher}" '
        { ratio[NR] = $4; if (better == "lower" ? $3 < $2 : $3 > $2) won++ }
        END {
            median = NR % 2 ? ratio[(NR + 1) / 2] : (ratio[NR / 2] + ratio[NR / 2 + 1]) / 2
            printf "pairs won %d/%d, ratio %.2f–%.2f–%.2f\n", won, NR, ratio[1], median, ratio[NR]
        }'
fi
exit "$status"
