#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload hub-fanin --seed 1 --seconds 54 --trace 0
#
# The Go build cache and the binary stay under .bench_build/ in the checkout.
# Without the repository's sources next to perfbench/ the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C perfbench -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
