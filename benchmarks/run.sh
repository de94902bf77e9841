#!/usr/bin/env bash
# Builds the benchmark and runs it with the arguments given. Everything
# the build and the run write — Go's build cache and temp files, the
# binary, each run's data directory — stays under .bench_build in the
# checkout this script is part of.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$out/benchmarks" ./benchmarks
exec "$out/benchmarks" "$@"
