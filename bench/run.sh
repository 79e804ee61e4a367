#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash bench/run.sh --workload replicate-warm --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and every binary stay under
# .bench_build in the checkout; no network access is attempted.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" -bin "$out/bin" "$@"
