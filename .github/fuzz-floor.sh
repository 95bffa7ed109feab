#!/usr/bin/env bash
# Runs every fuzz line of .github/workflows/ci.yml for a few seconds each,
# with that line's own flags, and fails when a target executes fewer
# inputs than the floor. A target whose budget goes to minimizing instead
# of exploring (a line without -fuzzminimizetime=0: Go's default is 60 s
# per new input) or whose per-input cost explodes runs tens of inputs
# where a healthy one runs thousands, so a loose floor catches either.
#
# Each target starts from an empty fuzz cache, so a corpus grown by earlier
# runs (a restored build cache) cannot hide a target that minimizes.
#
#   bash .github/fuzz-floor.sh            # 5 s per target, floor 1000
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
seconds=5
floor=1000
cache=$(mktemp -d)
trap 'rm -rf "$cache"' EXIT

lines=$(grep -E "^ *go test .*-fuzz='\^Fuzz[A-Za-z0-9]*\\$'" .github/workflows/ci.yml | sed -E 's/^ *//')
if [ -z "$lines" ]; then
	echo "fuzz-floor: no -fuzz lines found in .github/workflows/ci.yml" >&2
	exit 1
fi

failed=0
while read -r line; do
	name=$(echo "$line" | grep -oE 'Fuzz[A-Za-z0-9]*' | head -1)
	cmd="$(echo "$line" | sed -E "s/-fuzztime=[^ ]*/-fuzztime=${seconds}s/") -args -test.fuzzcachedir=$cache/$name"
	out=$(eval "$cmd" 2>&1) || {
		echo "$out" >&2
		echo "FAIL $name: the fuzz run failed" >&2
		failed=1
		continue
	}
	execs=$(echo "$out" | grep -oE 'execs: [0-9]+' | tail -1 | grep -oE '[0-9]+' || true)
	if [ -z "$execs" ] || [ "$execs" -lt "$floor" ]; then
		echo "FAIL $name: ${execs:-no} execs in ${seconds}s, floor $floor" >&2
		failed=1
		continue
	fi
	echo "ok   $name: $execs execs in ${seconds}s, floor $floor"
done <<<"$lines"
exit $failed
