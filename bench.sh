#!/bin/sh
# Core-path benchmark runner and regression artifact emitter.
#
# Runs the BenchmarkCore* suite — the DES kernel, the cluster job loop, the
# gateway metrics path, the class-aggregated megascale solver, and the
# cross-layer solve-and-simulate pipeline — with allocation reporting, runs
# the EXT11 planet-scale scaling sweep (quick mode), and converts everything
# into BENCH_core.json (schema nashlb/bench-core/v2, documented in
# EXPERIMENTS.md) via cmd/benchjson. CI runs this as a non-blocking job and
# uploads the JSON; locally it is the before/after tool for performance work.
#
# It then runs the BenchmarkServeThroughput family (gateway hot path,
# legacy comparison, end-to-end round trip) plus the admission and encode
# micro-benchmarks and merges them into BENCH_serve.json (schema 5) under
# the "throughput" key via `benchjson -serve`, which refuses to touch a
# document whose schema it does not understand.
#
# Environment knobs:
#   BENCH_COUNT  repetitions per benchmark (default 1; use 5+ for stable
#                numbers — benchjson keeps the fastest run)
#   BENCH_TIME   -benchtime per benchmark (default 1s)
#   BENCH_OUT    output path (default BENCH_core.json)
#   BENCH_SERVE  serving-throughput output path (default BENCH_serve.json)
set -eu

cd "$(dirname "$0")"

count=${BENCH_COUNT:-1}
benchtime=${BENCH_TIME:-1s}
out=${BENCH_OUT:-BENCH_core.json}
serveout=${BENCH_SERVE:-BENCH_serve.json}

tmp=$(mktemp)
ext11=$(mktemp)
servetmp=$(mktemp)
trap 'rm -f "$tmp" "$ext11" "$servetmp"' EXIT

echo "== go test -bench BenchmarkCore (count=$count, benchtime=$benchtime)"
go test -run '^$' -bench 'BenchmarkCore' -benchmem \
    -benchtime "$benchtime" -count "$count" \
    ./internal/des ./internal/cluster ./internal/serve ./internal/megascale . | tee "$tmp"

echo "== experiments -run ext11 -quick (planet-scale scaling sweep)"
go run ./cmd/experiments -run ext11 -quick -benchcore "$ext11"

go run ./cmd/benchjson -ext11 "$ext11" <"$tmp" >"$out"
echo "bench: wrote $out"

echo "== go test -bench serving throughput (count=$count, benchtime=$benchtime)"
go test -run '^$' \
    -bench 'BenchmarkServeThroughput|BenchmarkShardedAdmission|BenchmarkAppendSubmitResponse' \
    -benchmem -benchtime "$benchtime" -count "$count" \
    ./internal/serve | tee "$servetmp"

go run ./cmd/benchjson -serve "$serveout" <"$servetmp"
echo "bench: merged throughput into $serveout"
