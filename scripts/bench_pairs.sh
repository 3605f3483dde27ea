#!/usr/bin/env bash
# Paired runs of the repo's benchmark, a parent checkout against this
# one: per workload, ten pairs (seeds 1..10, the side that goes first
# alternating), then `-summarize` of the two sets — benchmark/aa.sh's
# shape with two binaries. Result lines land in benchmark/out/pairs as
# parent_<workload>.jsonl / change_<workload>.jsonl.
#
#	scripts/bench_pairs.sh /path/to/parent-checkout > pairs.txt
set -euo pipefail
parent="$(cd "${1:?usage: bench_pairs.sh <parent-checkout>}" && pwd)"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/benchmark/out/pairs"
mkdir -p "$out"
run() { (cd "$1" && bash benchmark/run.sh -workload "$2" -seed "$3" -json) >>"$out/$4_$2.jsonl"; }
status=0
for w in fanout_tcp sensor_merge auction_join remote_churn; do
	: >"$out/parent_$w.jsonl"
	: >"$out/change_$w.jsonl"
	for seed in $(seq 1 10); do
		if [ $((seed % 2)) -eq 1 ]; then
			run "$parent" "$w" "$seed" parent
			run "$root" "$w" "$seed" change
		else
			run "$root" "$w" "$seed" change
			run "$parent" "$w" "$seed" parent
		fi
	done
	echo
	echo "## $w (A = parent, B = change)"
	echo
	(cd "$root" && bash benchmark/run.sh -summarize "$out/parent_$w.jsonl" "$out/change_$w.jsonl") || status=1
done
exit "$status"
