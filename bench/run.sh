#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload fluid-week --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files) stays
# under .bench_build/, and nothing is fetched over the network.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/core || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root; it needs go.mod, internal/ and bench/" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
