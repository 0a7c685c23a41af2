#!/usr/bin/env bash
# Builds nashbench from source and runs it. Run from the repository root:
#
#   bash nashbench/run.sh --workload hot-path --seed 1 --seconds 30 --trace 0
#
# Build output, the Go caches and traces go under $CARGO_TARGET_DIR when it
# is set, else .bench_build, so nothing is written outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C nashbench build -buildvcs=false -o "$out/nashbench" .
exec "$out/nashbench" --out "$out" "$@"
