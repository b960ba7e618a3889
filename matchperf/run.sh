#!/usr/bin/env bash
# Builds the matchperf benchmark from the sources of the enclosing checkout
# and runs it. Run from the checkout root:
#
#   bash matchperf/run.sh --workload solve --seed 1 --seconds 15 --trace 0
#
# Every build product (the Go build cache and the binary) goes under
# .bench_build in the current directory; arguments pass through unchanged.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$out/matchperf" .)
exec "$out/matchperf" "$@"
