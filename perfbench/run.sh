#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it, e.g.
#
#   bash perfbench/run.sh --workload analyze-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The binary and the Go build cache
# go to .bench_build there, so a run writes nothing outside the checkout
# and later runs reuse the build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
