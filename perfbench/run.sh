#!/usr/bin/env bash
# Builds the benchmark and the mwserved daemon from this checkout, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload al1000 --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay in $BENCH_BUILD_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/${BENCH_BUILD_DIR:-.bench_build}"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/mod"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off CGO_ENABLED=0
mkdir -p "$GOTMPDIR" "$out/bin"
go build -C perfbench -o "$out/bin/perfbench" .
go build -o "$out/bin/mwserved" ./cmd/mwserved
exec "$out/bin/perfbench" --mwserved "$out/bin/mwserved" "$@"
