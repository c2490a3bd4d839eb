#!/usr/bin/env bash
# Builds the xbar end-to-end benchmark from this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload admit-hot --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the span files stay under
# .bench_build/ in the checkout. Without the repository's sources next
# to perfbench/ the build fails and the script exits non-zero.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
go -C "$root/perfbench" build -o "$out/xbarbench" .
exec "$out/xbarbench" "$@"
