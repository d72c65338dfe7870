#!/usr/bin/env bash
# Builds the SID benchmark from this checkout's sources and runs it. Run it
# from the root of the checkout:
#
#   bash sidperf/run.sh --workload grid_crossing --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every other build product stay under
# .bench_build/ in the checkout. Build output goes to stderr, so the last
# line on stdout is the result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/sidperf"
mkdir -p "$build/cache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/sidperf" build -o "$build/sidperf" . >&2
exec "$build/sidperf" "$@"
