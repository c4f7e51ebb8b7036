#!/usr/bin/env bash
# Builds the service benchmark from source and runs it:
#   bash svcbench/run.sh --workload rmat-run --seed 1 --seconds 10 --trace 0
# Run it from the root of the repository. Every build output stays inside the
# repository: the binary and the Go build cache go under $CARGO_TARGET_DIR
# (default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/go-cache GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off
export GOPATH=$out/go-path GOMODCACHE=$out/go-path/pkg/mod
go -C "$root/svcbench" build -o "$out/svcbench" .
exec "$out/svcbench" "$@"
