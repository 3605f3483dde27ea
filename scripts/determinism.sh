#!/usr/bin/env bash
# determinism.sh — the deterministic gate on benchmark/: the counts it
# reports that are a pure function of the seed must equal the
# checked-in baseline exactly. Every workload runs at the smallest scale
# the driver accepts (seed 1, -seconds 1): the -trace 1 pass for the
# per-layer counts, the untraced pass for net_bytes_per_event where no
# TCP framing is involved. A metric is gated only once three same-seed
# runs agreed exactly; the allocation-derived cbn.route_allocs and
# spe.push_allocs, and net_bytes_per_event on the two TCP workloads, do
# not, and are left out.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
baseline="$root/scripts/determinism_baseline.txt"

# value prints metric $2's value from result line $1 verbatim (Go's
# shortest float form, so the comparison is textual and exact).
value() {
	local v
	v="$(grep -o "\"${2//./\\.}\":{\"value\":[^,}]*" <<<"$1" | cut -d: -f3)"
	[ -n "$v" ] || { echo "determinism.sh: no $2 in: $1" >&2; return 1; }
	echo "$v"
}

# result runs one pass and prints its JSON line, refusing a failed run.
result() {
	local line
	line="$(bash "$root/benchmark/run.sh" -workload "$1" -seed 1 -seconds 1 -trace "$2" -json | tail -1)"
	grep -q '"failed":0' <<<"$line" || { echo "determinism.sh: $1 -trace $2 failed: $line" >&2; return 1; }
	echo "$line"
}

got="$(mktemp)"
trap 'rm -f "$got"' EXIT
for w in fanout_tcp sensor_merge auction_join remote_churn; do
	line="$(result "$w" 1)"
	for m in merge.groups exec.pushes_per_event cbn.link_msgs_per_event core.deliver_fanout; do
		echo "$w $m $(value "$line" "$m")"
	done
	case "$w" in sensor_merge | auction_join)
		echo "$w net_bytes_per_event $(value "$(result "$w" 0)" net_bytes_per_event)"
		;;
	esac
done >"$got"

diff -u "$baseline" "$got" || {
	echo "determinism.sh: seed-determined counts moved; if the change means to move them, apply the diff's '+' lines to scripts/determinism_baseline.txt and say why in CHANGES.md" >&2
	exit 1
}
