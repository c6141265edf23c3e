#!/usr/bin/env bash
# Run one command against a fresh one-shot matchd on an ephemeral port.
#
#   scripts/with-matchd.sh [matchd flags] -- CMD...
#
# Starts `matchd --once --addr 127.0.0.1:0 --addr-file F [matchd flags]`,
# waits for F, runs CMD with MATCHD_ADDR exported (so CMD is usually
# `sh -c '… --addr "$MATCHD_ADDR" …'`), then waits for the daemon. Exits
# with CMD's status when that is nonzero, else with matchd's.
set -euo pipefail

matchd="$(dirname "${BASH_SOURCE[0]}")/../target/release/matchd"
flags=()
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
    flags+=("$1")
    shift
done
[ "$#" -ge 2 ] || { echo "usage: $0 [matchd flags] -- CMD..." >&2; exit 2; }
shift

addr_file="$(mktemp -u "${TMPDIR:-/tmp}/matchd-XXXXXX.addr")"
"$matchd" --once --addr 127.0.0.1:0 --addr-file "$addr_file" "${flags[@]}" &
pid=$!
trap 'kill "$pid" 2>/dev/null || true; rm -f "$addr_file"' EXIT

for _ in $(seq 1 100); do
    [ -s "$addr_file" ] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
done
[ -s "$addr_file" ] || { echo "matchd never published its address" >&2; exit 1; }
MATCHD_ADDR="$(cat "$addr_file")"
export MATCHD_ADDR

cmd_status=0
"$@" || cmd_status=$?
# A command that never connected leaves `--once` waiting forever.
[ "$cmd_status" -eq 0 ] || kill "$pid" 2>/dev/null || true
daemon_status=0
wait "$pid" || daemon_status=$?
[ "$cmd_status" -eq 0 ] || exit "$cmd_status"
exit "$daemon_status"
