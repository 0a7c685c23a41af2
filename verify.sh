#!/bin/sh
# Full verification: the tier-1 gate (build + tests), the benchmark module's
# vet and tests, static analysis (go vet, and gofmt listing no file) and the
# race detector over the concurrent packages (the distributed ring with its
# fault-tolerance layer, the online balancer, the live HTTP serving stack,
# and the gateway-fleet control plane — including the self-healing chaos
# tests in internal/serve and the leader-failover tests in internal/fleet;
# the long crash/recovery e2e runs gate themselves behind -short), the
# scheduling-sensitive ones at 1, 2 and 4 GOMAXPROCS.
set -eu

cd "$(dirname "$0")"

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go test ./..."
go test ./...

# The benchmark module: nashbench is a Go module of its own, so the steps
# above never compile it. Vetting and testing it here makes a root-API
# change that breaks the benchmark fail verification, not the benchmark run.
echo "== go -C nashbench vet . && go -C nashbench test ."
go -C nashbench vet .
go -C nashbench test .

echo "== go test -race ./internal/online/... ./internal/replicate/... ./internal/cluster/..."
go test -race ./internal/online/... ./internal/replicate/... ./internal/cluster/...

# Core-count sweep: the admission bounds, fleet safety, the distributed
# ring and the per-type megascale solver run three times under the race
# detector at each of 1, 2 and 4 GOMAXPROCS, because some interleavings
# (a clock reading that reaches the admission reservoir after a later one)
# cannot happen on one core. The packages run one at a time (-p 1): the
# live-serving tests in internal/serve time real requests, and a
# race-instrumented fleet binary beside them on a small host slows them
# past their latency bars. Nine runs of internal/serve take about eight
# minutes on two vCPUs, so the per-binary timeout is raised above go test's
# ten-minute default.
echo "== go test -race -count=3 -cpu 1,2,4 -p 1 ./internal/serve/... ./internal/fleet/... ./internal/dist/... ./internal/megascale/..."
go test -race -count=3 -cpu 1,2,4 -p 1 -timeout 25m ./internal/serve/... ./internal/fleet/... ./internal/dist/... ./internal/megascale/...

# Fuzz smoke: a short randomized run of each native fuzz target (bisection
# root finder, M/M/1 queue-depth inversion, fleet wire codec, durable
# snapshot decoder, user-class spec parser, routing-table install, work-hop
# frame codec for job and status requests and their replies). Regressions
# show up as crasher inputs; Go allows one -fuzz target per invocation.
echo "== go test -fuzz (smoke, 10s each)"
go test -run '^$' -fuzz FuzzBisect -fuzztime 10s ./internal/numeric
go test -run '^$' -fuzz FuzzQueueInversion -fuzztime 10s ./internal/estimate
go test -run '^$' -fuzz FuzzFleetWire -fuzztime 10s ./internal/fleet
go test -run '^$' -fuzz FuzzWALDecode -fuzztime 10s ./internal/fleet
go test -run '^$' -fuzz FuzzParseClasses -fuzztime 10s ./internal/cli
go test -run '^$' -fuzz FuzzInstallTable -fuzztime 10s ./internal/serve
go test -run '^$' -fuzz FuzzWorkFrame -fuzztime 10s ./internal/serve

# Serving-throughput regression gates: the forwarding hot path must keep
# its >=3x advantage over the pre-PR per-request work, and the closed-loop
# harness must keep exposing coordinated omission (corrected percentiles
# reflect a seeded stall the uncorrected view hides). TestForwardPathAllocs
# below holds the hot path at zero steady-state allocations.
echo "== go test -run 'HotPathSpeedup|CoordinatedOmission' ./internal/serve"
go test -run 'HotPathSpeedup|CoordinatedOmission' -count=1 ./internal/serve

# Allocation-regression gate: the steady-state DES, cluster-job, gateway
# record and megascale solver round paths must stay at zero allocations per
# operation (the testing.AllocsPerRun tests; benchmarks in bench.sh track
# the same paths), and TestMegascaleSolveResultAllocs holds a whole solve of
# 10,000 machines in four types × 200 classes under 1 MiB allocated per call
# and under 1 MiB of StateBytes, so the result stays per machine type.
echo "== go test -run 'Allocs' ./internal/des ./internal/cluster ./internal/serve ./internal/megascale"
go test -run 'Allocs' ./internal/des ./internal/cluster ./internal/serve ./internal/megascale

echo "verify: OK"
