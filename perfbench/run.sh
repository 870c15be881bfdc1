#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest-durable --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# working directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOTMPDIR="$out/tmp"
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
