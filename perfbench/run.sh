#!/usr/bin/env bash
# Builds the benchmark and the hdcps-serve binary it drives from the source
# tree it sits in, then runs one workload. Every build and run artefact stays
# under .bench_build/ in the checkout root; run it from that root:
#
#   bash perfbench/run.sh --workload solve-road-sssp --seed 1 --seconds 15 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/go"
mkdir -p "$out/cache" "$out/tmp" "$out/path" "$out/bin"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/path" \
	GOMODCACHE="$out/path/mod" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off

go -C perfbench build -o "$out/bin/perfbench" . >&2
go -C perfbench build -o "$out/bin/hdcps-serve" hdcps/cmd/hdcps-serve >&2
exec "$out/bin/perfbench" -serve-bin "$out/bin/hdcps-serve" "$@"
