#!/usr/bin/env bash
# Builds the benchmark driver from source and runs one workload:
#
#   bash iobtbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The build cache, temporary files and
# the binary stay in .bench_build/ so nothing is written outside the
# checkout; the first build compiles the standard library and takes a
# minute or two, later ones reuse the cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/iobtbench" && go build -o "$out/iobtbench" .)
exec "$out/iobtbench" "$@"
