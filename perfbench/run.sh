#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and runs
# it with the given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload plan --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traced runs' spans stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
