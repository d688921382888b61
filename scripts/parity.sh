#!/usr/bin/env bash
# Byte-identity check for behaviour-preserving changes: builds dynamobench
# at a base revision and from the working tree, runs the same experiment
# list with both, and fails if any stdout (or exit status) differs.
# Stderr carries timing lines and is not compared. Run from the
# repository root:
#
#   make parity BASE=<rev>      # or: scripts/parity.sh <rev>
#
# The base revision is exported with git archive into a temporary
# directory, so an interrupted run leaves no worktree registered in .git.
set -euo pipefail

base=${1:?usage: scripts/parity.sh <base-rev>}
rev=$(git rev-parse --verify --quiet "$base^{commit}") || {
	echo "parity: unknown revision $base" >&2
	exit 2
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$rev" | tar -x -C "$tmp/base"
go -C "$tmp/base" build -o "$tmp/dynamobench-base" ./cmd/dynamobench
go build -o "$tmp/dynamobench-head" ./cmd/dynamobench

runs=(
	"-quick all"
	"-quick fidelity"
	"-quick kv"
	"-quick -peak 5 chaos"
	"-quick -peak 5 -fidelity event scenario flashcrowd"
	"-quick -peak 5 -kv-tier cpu scenario tier-thrash"
	"-quick -peak 5 -disagg scenario flashcrowd"
)
fail=0
for args in "${runs[@]}"; do
	for side in base head; do
		rc=0
		# shellcheck disable=SC2086 # args is a word list on purpose
		"$tmp/dynamobench-$side" $args >"$tmp/$side.out" 2>/dev/null || rc=$?
		echo "exit status $rc" >>"$tmp/$side.out"
	done
	if cmp -s "$tmp/base.out" "$tmp/head.out"; then
		echo "identical  dynamobench $args"
	else
		echo "DIFFERS    dynamobench $args"
		diff "$tmp/base.out" "$tmp/head.out" | head -40 || true
		fail=1
	fi
done
if [ "$fail" -ne 0 ]; then
	echo "parity: stdout differs from $base ($rev)" >&2
	exit 1
fi
echo "parity: every run byte-identical to $base ($rev)"
