#!/usr/bin/env bash
# Transport result-path benchmarks, on the internal/load harness.
#
#   scripts/bench_transport.sh          # refresh BENCH_transport.json + print the micro-benchmark
#
# Refreshes the transport trajectory point in BENCH_transport.json via
# cmd/cosmosbench (the sustained scenario: 5000 tuples/s for 1s into 16
# subscriptions over TCP, open-loop paced, sequence-ledger
# accounted; earlier points stay in the file's history block), then runs
# the result-path micro-benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== sustained load (writes BENCH_transport.json) =="
go run ./cmd/cosmosbench -scenario transport -rate 5000 -duration 1s -subs 16 \
    -out BENCH_transport.json -strict

echo
echo "== result path =="
go test . -run '^$' -bench BenchmarkDialResultPath -benchmem -benchtime 2s -count=1
