#!/usr/bin/env bash
# A/A check: two alternating sets of RUNS full runs of one binary per
# workload (A1 B1 A2 B2 …, seeds 1..RUNS in both sets), then per metric
# each set's median, quartiles and spread and the relative gap between
# the two medians. Fails on what the driver refuses a benchmark for:
# either set's median worse than the other's by more than the metric's
# bound, or a set's spread wider than it (setup_s excepted, which then
# reads UNRESOLVED). Its output is checked in as benchmark/AA.md:
#
#	benchmark/aa.sh > benchmark/AA.md
set -euo pipefail
runs="${RUNS:-10}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="benchmark/out/aa"
mkdir -p "$out"
bench="bash benchmark/run.sh" # builds the binary on first use

echo "# A/A: two sets of $runs runs of the same binary"
echo
echo "$(nproc) CPUs, $(go version | cut -d' ' -f3-), $(uname -sr), $(date -u +%F)."
echo "Sets alternate run by run; both use seeds 1..$runs. spread = (q3 − q1) ÷ median;"
echo "gap = set B's median against set A's, positive when B is worse."
status=0
for w in fanout_tcp sensor_merge auction_join remote_churn; do
	: >"$out/A_$w.jsonl"
	: >"$out/B_$w.jsonl"
	for seed in $(seq 1 "$runs"); do
		for set in A B; do
			$bench -workload "$w" -seed "$seed" -json >>"$out/${set}_$w.jsonl"
		done
	done
	echo
	echo "## $w"
	echo
	$bench -summarize "$out/A_$w.jsonl" "$out/B_$w.jsonl" || status=1
done
echo
if [ "$status" -eq 0 ]; then
	echo "Every gated gap and spread is within its metric's bound (setup_s: its gap)."
else
	echo "FAILED: a gated gap or spread exceeds its metric's bound."
fi
exit "$status"
