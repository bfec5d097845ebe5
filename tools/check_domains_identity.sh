#!/usr/bin/env sh
# Compute width is pure mechanism: the same seeded demo query, run
# against one serve-s2 daemon over TCP (`demo --s2`) at --domains 1 and
# --domains 2, must print identical results, halting depth, traffic and
# op-count tables (client side and the daemon-side counters). Only the
# wall-clock figures may differ; they are stripped before comparing.
#
# Usage: sh tools/check_domains_identity.sh [extra demo flags...]
set -eu

cd "$(dirname "$0")/.."
dune build bin/topk_cli.exe
cli=./_build/default/bin/topk_cli.exe

tmp=$(mktemp -d)
daemon=""
trap 'if [ -n "$daemon" ]; then kill "$daemon" 2>/dev/null || true; fi; rm -rf "$tmp"' EXIT INT TERM

"$cli" serve-s2 --port 0 >"$tmp/s2.out" 2>&1 &
daemon=$!
port=""
for _ in $(seq 1 50); do
  port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$tmp/s2.out")
  [ -n "$port" ] && break
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "check_domains_identity: serve-s2 did not come up:" >&2
  cat "$tmp/s2.out" >&2
  exit 1
fi

for d in 1 2; do
  "$cli" demo --rows 30 -k 3 --seed domains-identity --s2 "127.0.0.1:$port" \
    --domains "$d" --metrics "$@" >"$tmp/raw-$d.txt"
  # strip wall clock: the encrypt/query timings and the wall(s) column
  sed -e 's/ in [0-9.]*s (/ (/' -e 's/^query: [0-9.]*s, /query: /' "$tmp/raw-$d.txt" |
    awk '{ if ($NF ~ /^[0-9]+\.[0-9]+$/ || $NF == "wall(s)") NF--; print }' >"$tmp/norm-$d.txt"
done

kill -TERM "$daemon"
wait "$daemon" || true
daemon=""

fail=0
grep -q '^oracle-valid: true' "$tmp/norm-1.txt" || { echo "check_domains_identity: width-1 answer not oracle-valid" >&2; fail=1; }
grep -q '^SecQuery ' "$tmp/norm-1.txt" || { echo "check_domains_identity: no op-count table (--metrics)" >&2; fail=1; }
grep -q 'daemon-side operation counters' "$tmp/norm-1.txt" || { echo "check_domains_identity: no daemon-side counters" >&2; fail=1; }
if ! diff -u "$tmp/norm-1.txt" "$tmp/norm-2.txt"; then
  echo "check_domains_identity: --domains 1 and --domains 2 disagree" >&2
  fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "check_domains_identity: OK (results and op counts identical at --domains 1 and 2)"
