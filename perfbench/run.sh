#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root. The build, its caches and the span
# files of traced runs stay under .bench_build/ there.
set -euo pipefail
src=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
