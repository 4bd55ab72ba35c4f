#!/usr/bin/env bash
# Builds cmd/v2v and the benchmark inside the checkout and runs the
# benchmark with the arguments given. Everything it writes — binaries,
# the Go build cache, each run's files — goes under .bench_build/ at
# the repository root.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
start=$(date +%s.%N)
go build -C "$root" -o "$out/v2v" ./cmd/v2v
go build -C "$here" -o "$out/v2vbench" .
build_s=$(echo "$(date +%s.%N) $start" | awk '{printf "%.3f", $1 - $2}')
cd "$root"
exec "$out/v2vbench" -v2v "$out/v2v" -work "$out" -build-s "$build_s" "$@"
