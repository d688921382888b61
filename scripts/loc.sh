#!/usr/bin/env bash
# Line count behind the simplicity bar: non-test Go lines per package
# directory and in total. Counts every line of every git-tracked .go file
# (blank and comment lines included, as wc -l does), skipping _test.go
# files, the separate bench/ module and testdata/ corpora. Run from the
# repository root:
#
#   make loc      # or: scripts/loc.sh
set -euo pipefail

git ls-files '*.go' |
	grep -Ev '(_test\.go$|^bench/|(^|/)testdata/)' |
	while read -r f; do
		printf '%s %s\n' "$(wc -l <"$f")" "$(dirname "$f")"
	done |
	awk '{ n[$2] += $1; total += $1 }
		END {
			for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"
			close("sort -k2")
			printf "%6d  total\n", total
		}'
