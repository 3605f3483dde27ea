#!/usr/bin/env bash
# loc.sh — non-test Go lines per package and in total: the number
# ROADMAP aim 2 ("the same behaviour from the least code") is judged by.
#
# Counts physical lines of every *.go file that is not a *_test.go, not
# under benchmark/ (the instrument, not the system) and not analyzer
# testdata. Lines moved into test files therefore leave the count; a PR
# that claims a reduction lists those separately.
#
# Usage: scripts/loc.sh [dir]     (default: the repository root)
set -euo pipefail
cd "${1:-"$(dirname "$0")/.."}"

find . -name '*.go' ! -name '*_test.go' \
	! -path './benchmark/*' ! -path '*/testdata/*' ! -path './.*' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		pkg = $2; sub(/\/[^\/]*$/, "", pkg); if (pkg == ".") pkg = "./"
		lines[pkg] += $1; total += $1
	}
	END {
		for (p in lines) printf "%7d  %s\n", lines[p], p | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", total
	}'
