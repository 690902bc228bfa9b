#!/usr/bin/env bash
# Builds the serving programs and the benchmark program from this checkout
# and runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload adj-bulk --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare base.jsonl new.jsonl
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/plserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and cmd/ not found)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
# The Go config dir (env file, telemetry counters) moves there as well.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/bin/" ./cmd/pllabel ./cmd/plserve ./cmd/plroute
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
