#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload serve-warm --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. The Go build cache, temporary build files
# and the binary live in .bench_build, so a run writes nothing outside the
# checkout and never reaches the network.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS="-mod=readonly -buildvcs=false" GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C benchmark build -o "$out/recflex-benchmark" .
exec "$out/recflex-benchmark" --workdir "$out" "$@"
