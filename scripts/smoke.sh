#!/usr/bin/env bash
# End-to-end smoke over a real socket: start cosmosd (LiveSystem by
# default), drive it with cosmosctl — explain, register, catalog,
# publish (accepted and refused), submit (streaming results), stats, top,
# quiesce — assert the streamed results and the -metrics-addr HTTP
# surface (live tuple counts, pprof), then shut the daemon down
# gracefully with SIGTERM.
# CI runs this; it is also handy locally: ./scripts/smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

bin="$(mktemp -d)"
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
  rm -rf "$bin"
}
trap cleanup EXIT

go build -o "$bin" ./cmd/cosmosd ./cmd/cosmosctl

addr="127.0.0.1:7954"
maddr="127.0.0.1:7955"
"$bin/cosmosd" -listen "$addr" -nodes 32 -processors 2 -workers 2 -seed 1 \
  -metrics-addr "$maddr" -sample-every 1 \
  >"$bin/cosmosd.log" 2>&1 &
daemon_pid=$!

ctl() { "$bin/cosmosctl" -addr "$addr" "$@"; }

# Minimal HTTP GET over bash's /dev/tcp — no curl dependency.
http_get() {
  exec 3<>"/dev/tcp/${1%%:*}/${1##*:}"
  printf 'GET %s HTTP/1.0\r\nHost: %s\r\n\r\n' "$2" "$1" >&3
  cat <&3
  exec 3<&- 3>&-
}

# Wait for the daemon to accept connections.
up=""
for _ in $(seq 1 100); do
  if ctl stats >/dev/null 2>&1; then up=1; break; fi
  sleep 0.1
done
[ -n "$up" ] || { echo "cosmosd never came up"; cat "$bin/cosmosd.log"; exit 1; }

echo "== explain (local, no server round trip)"
# (plain grep, not -q: -q exits on first match and SIGPIPEs tee under pipefail)
ctl explain -cql 'SELECT symbol, price FROM Trades [Range 5 Minute] WHERE price > 100' \
  | tee /dev/stderr | grep 'select-project filter' >/dev/null

echo "== register + catalog"
ctl register -stream 'Trades(symbol string, price float)' -rate 100 -node 1
ctl catalog | grep -q 'Trades'

echo "== submit (streaming) + publish"
out="$bin/results.txt"
ctl submit -cql 'SELECT symbol, price FROM Trades [Range 5 Minute] WHERE price > 100' \
  -node 3 -count 3 >"$out" 2>"$bin/submit.log" &
submit_pid=$!
# Wait until the subscription is live, then settle its propagation.
sub=""
for _ in $(seq 1 100); do
  if grep -q 'streaming results' "$bin/submit.log" 2>/dev/null; then sub=1; break; fi
  sleep 0.1
done
[ -n "$sub" ] || { echo "submit never started"; cat "$bin/submit.log"; exit 1; }
ctl quiesce >/dev/null

i=0
while kill -0 "$submit_pid" 2>/dev/null && [ "$i" -lt 50 ]; do
  ctl publish -stream Trades -ts $((i * 1000)) -values "ACME,$((200 + i))" >/dev/null
  i=$((i + 1))
done
wait "$submit_pid"
lines="$(wc -l <"$out")"
[ "$lines" -ge 3 ] || { echo "streamed $lines results, want >= 3"; cat "$out"; exit 1; }
grep -q 'ACME' "$out"
echo "streamed $lines results:"
cat "$out"

echo "== metrics endpoint (-metrics-addr)"
http_get "$maddr" /metrics >"$bin/metrics.json"
# The daemon has ingested the published trades: the live stats var must
# report a non-zero tuple count.
grep -Eq '"Ingested": *[1-9]' "$bin/metrics.json" \
  || { echo "metrics endpoint reports no ingested tuples"; cat "$bin/metrics.json"; exit 1; }
grep -q '"Stages"' "$bin/metrics.json" \
  || { echo "metrics endpoint missing stage series"; cat "$bin/metrics.json"; exit 1; }
http_get "$maddr" /debug/pprof/cmdline >"$bin/pprof.out"
grep -aq 'cosmosd' "$bin/pprof.out" \
  || { echo "pprof endpoint not responding"; cat "$bin/pprof.out"; exit 1; }
echo "metrics + pprof OK"

echo "== top (single frame)"
ctl top -n 1 -interval 0.2s >"$bin/top.txt"
grep -q '^STAGE' "$bin/top.txt" || { echo "top printed no stage table"; cat "$bin/top.txt"; exit 1; }
grep -q '^ingest' "$bin/top.txt" || { echo "top missing ingest stage"; cat "$bin/top.txt"; exit 1; }
cat "$bin/top.txt"

echo "== SIGKILL + restart survived by a -retry session"
out2="$bin/results2.txt"
ctl -retry submit -cql 'SELECT symbol, price FROM Trades [Range 5 Minute] WHERE price > 100' \
  -node 5 -count 6 >"$out2" 2>"$bin/submit2.log" &
retry_pid=$!
sub=""
for _ in $(seq 1 100); do
  if grep -q 'streaming results' "$bin/submit2.log" 2>/dev/null; then sub=1; break; fi
  sleep 0.1
done
[ -n "$sub" ] || { echo "retry submit never started"; cat "$bin/submit2.log"; exit 1; }
ctl quiesce >/dev/null
# Land a few results on the resilient subscription, then murder the
# daemon mid-stream — no drain, no goodbye.
i=0
while [ "$(wc -l <"$out2")" -lt 3 ] && [ "$i" -lt 50 ]; do
  ctl publish -stream Trades -ts $((100000 + i * 1000)) -values "ACME,$((300 + i))" >/dev/null
  i=$((i + 1))
done
[ "$(wc -l <"$out2")" -ge 3 ] || { echo "resilient submit streamed no results pre-kill"; cat "$bin/submit2.log"; exit 1; }
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
"$bin/cosmosd" -listen "$addr" -nodes 32 -processors 2 -workers 2 -seed 1 \
  >"$bin/cosmosd2.log" 2>&1 &
daemon_pid=$!
up=""
for _ in $(seq 1 100); do
  if ctl stats >/dev/null 2>&1; then up=1; break; fi
  sleep 0.1
done
[ -n "$up" ] || { echo "restarted cosmosd never came up"; cat "$bin/cosmosd2.log"; exit 1; }
# The fresh daemon has an empty catalog, so it refuses this tuple: a
# refused publish must exit non-zero and say why, not report "published".
if ctl publish -stream Trades -ts 150000 -values "ACME,350" >"$bin/refused.txt" 2>&1; then
  echo "publish into an unregistered stream exited 0"; cat "$bin/refused.txt"; exit 1
fi
grep -q 'not registered' "$bin/refused.txt" \
  || { echo "refused publish gave no reason"; cat "$bin/refused.txt"; exit 1; }
# Re-register, then keep publishing until the resumed subscription
# reaches its -count and the client exits 0 — proving the -retry session
# rode out the restart.
ctl register -stream 'Trades(symbol string, price float)' -rate 100 -node 1
i=0
while kill -0 "$retry_pid" 2>/dev/null && [ "$i" -lt 100 ]; do
  ctl publish -stream Trades -ts $((200000 + i * 1000)) -values "ACME,$((400 + i))" >/dev/null 2>&1 || true
  i=$((i + 1))
  sleep 0.1
done
wait "$retry_pid" || { echo "-retry submit exited non-zero"; cat "$bin/submit2.log"; exit 1; }
lines2="$(wc -l <"$out2")"
[ "$lines2" -ge 6 ] || { echo "resilient session streamed $lines2 results, want >= 6"; cat "$out2"; exit 1; }
grep -q 'gap\[' "$bin/submit2.log" || { echo "no gap reported across the restart"; cat "$bin/submit2.log"; exit 1; }
echo "resilient session survived the restart ($lines2 results):"
cat "$out2"

echo "== stats"
ctl stats | tee /dev/stderr | grep '^queries:' >/dev/null

echo "== graceful shutdown (SIGTERM)"
kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=""
grep -q 'bye' "$bin/cosmosd2.log" || { echo "daemon did not shut down gracefully"; cat "$bin/cosmosd2.log"; exit 1; }

echo "smoke OK"
