#!/usr/bin/env bash
# check_run_list.sh — fails when an alternative of a `go test -run`
# pattern matches no test in the given packages, so a renamed or deleted
# test cannot drop out of a CI job's list without anyone noticing.
#
# Usage: scripts/check_run_list.sh 'TestA|TestB' ./pkg/...
set -euo pipefail
pattern="${1:?usage: check_run_list.sh <run-pattern> <packages>...}"
shift
tests="$(go test -list . "$@" | grep -E '^(Test|Fuzz|Example)' || true)"
status=0
IFS='|' read -ra alternatives <<<"$pattern"
for alt in "${alternatives[@]}"; do
	if ! grep -qE -- "$alt" <<<"$tests"; then
		echo "check_run_list.sh: -run alternative '$alt' matches no test in $*" >&2
		status=1
	fi
done
exit "$status"
