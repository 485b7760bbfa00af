#!/usr/bin/env sh
# httpd_smoke.sh <ceres_httpd> <ceres_http_load> — ceres_httpd end to end:
# one trained site on an ephemeral port, the same /extract page 40 times
# over one connection (one cache miss, 39 near-duplicate hits), a /metrics
# scrape, then SIGTERM. Prints "httpd_smoke: OK" only if the server drains
# with exit 0 and reports "cache: hits 39 misses 1".
set -eu
work=$(mktemp -d)
pid=
trap 'if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; fi
  rm -rf "$work"' EXIT
fail() { echo "httpd_smoke: FAIL: $1"; cat "$work/err"; exit 1; }

"$1" --port 0 --sites 1 --scale 0.1 --shards 1 --threads 1 \
  --store "$work/store" >"$work/out" 2>"$work/err" &
pid=$!
port=
waited=0
while [ -z "$port" ]; do
  kill -0 "$pid" 2>/dev/null || fail "ceres_httpd exited before listening"
  [ "$waited" -lt 240 ] || fail "no LISTENING line after $waited s"
  sleep 1
  waited=$((waited + 1))
  port=$(sed -n 's/^LISTENING \([0-9][0-9]*\)$/\1/p' "$work/out")
done
site=$(sed -n 's/^site \([^ ][^ ]*\) .* published .*/\1/p' "$work/err")
[ -n "$site" ] || fail "no published site in the startup log"

"$2" --port "$port" --site "$site" --clients 1 --requests 40 ||
  fail "an /extract request got no response"
"$2" --port "$port" --path /metrics --clients 1 --requests 1 ||
  fail "GET /metrics got no response"
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=
[ "$status" -eq 0 ] || fail "ceres_httpd exited with status $status"
grep -q "cache: hits 39 misses 1 " "$work/err" ||
  fail "the summary is not 'cache: hits 39 misses 1'"
echo "httpd_smoke: OK"
