#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it
# with the given flags. Run it from the root of the checkout:
#
#   bash bench/run.sh -workload netperf-cold -seed 7 -seconds 20 -trace 0
#
# The Go build cache, the benchmark binary and every temporary file it
# writes stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/tmp" "$work/config"

export GOCACHE="$work/gocache" GOMODCACHE="$work/gomod" GOPATH="$work/gopath"
export GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" XDG_CONFIG_HOME="$work/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd "$root/bench" && go build -o "$work/gpbench" .)
exec "$work/gpbench" "$@"
