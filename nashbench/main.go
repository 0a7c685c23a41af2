// Command nashbench is nashlb's end-to-end benchmark. It runs the serving
// stack in-process through its public constructors (serve.NewBackend,
// serve.NewGateway, fleet.OpenWAL, megascale.NewClassSystem), drives one of
// three workloads from a seeded generator, checks every output, and prints
// every metric by name, unit and sample count. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run reports the per-layer ones. Any failed correctness check makes
// the command exit 1. Run it from the repository root through run.sh, which
// builds it first:
//
//	bash nashbench/run.sh --workload hot-path --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	// n is the number of samples behind the value (0 for a single reading).
	n int64
}

// result is one workload run.
type result struct {
	attempted, failed int64
	metrics           []metric
	// violations are failed correctness checks.
	violations []error
}

func (r *result) add(m ...metric) { r.metrics = append(r.metrics, m...) }

// check records a failed correctness check.
func (r *result) check(err error) {
	if err != nil {
		r.violations = append(r.violations, err)
	}
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	traced  bool
	// conns is the number of client connections: nproc, never more.
	conns int
	// out is the build directory: traces and WAL directories go under it.
	out string
}

// dur is a share of the run's measured seconds.
func (rc runConfig) dur(share float64) time.Duration {
	return time.Duration(rc.seconds * share * float64(time.Second))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*result, error){
	"hot-path":  runHotPath,
	"mm1-churn": runChurn,
	"megasolve": runMegasolve,
}

func main() {
	workload := flag.String("workload", "", "hot-path, mm1-churn, megasolve, or all")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for traces and scratch state")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "nashbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "nashbench: --seconds must be positive")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"hot-path", "mm1-churn", "megasolve"}
	}
	for _, name := range names {
		if workloads[name] == nil {
			fmt.Fprintf(os.Stderr, "nashbench: unknown workload %q\n", name)
			os.Exit(2)
		}
	}
	rc := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, conns: runtime.NumCPU(), out: *out}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s cpu=%q traffic=loopback (in-process, 127.0.0.1) conns=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), rc.conns)

	total := &result{}
	for _, name := range names {
		res, err := workloads[name](rc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nashbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if err := complete(res, rc.traced); err != nil {
			fmt.Fprintf(os.Stderr, "nashbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		printResult(name, res)
		total.attempted += res.attempted
		total.failed += res.failed
		total.violations = append(total.violations, res.violations...)
		for _, m := range res.metrics {
			if len(names) > 1 {
				m.name = name + "/" + m.name
			}
			total.add(m)
		}
	}
	line, err := summaryJSON(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nashbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if len(total.violations) > 0 {
		os.Exit(1)
	}
}

// complete verifies that a run reported exactly the catalog's metrics for
// its mode, each finite.
func complete(res *result, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	got := make(map[string]metric, len(res.metrics))
	for _, m := range res.metrics {
		if _, dup := got[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		got[m.name] = m
	}
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, the catalog has %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.name]
		if !ok {
			return fmt.Errorf("metric %s not reported", w.name)
		}
		if m.unit != w.unit {
			return fmt.Errorf("metric %s reported in %s, catalog says %s", w.name, m.unit, w.unit)
		}
	}
	return nil
}

func printResult(name string, res *result) {
	for _, m := range res.metrics {
		if m.n > 0 {
			fmt.Printf("%s %s = %.6g %s (n=%d)\n", name, m.name, m.value, m.unit, m.n)
		} else {
			fmt.Printf("%s %s = %.6g %s\n", name, m.name, m.value, m.unit)
		}
	}
	fmt.Printf("%s attempted=%d failed=%d fail_frac=%.6g\n", name, res.attempted, res.failed,
		float64(res.failed)/math.Max(1, float64(res.attempted)))
	for _, v := range res.violations {
		fmt.Printf("%s CHECK FAILED: %v\n", name, v)
	}
}

// summaryJSON renders the final line.
func summaryJSON(res *result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   len(res.violations) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]value, len(res.metrics)),
	}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// cpuModel reads the CPU model name for the environment line.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// catalogEntry is one metric the benchmark defines.
type catalogEntry struct{ name, unit string }

// endToEnd and perLayer are the metric catalogs of BENCHMARK.json; every
// workload reports every entry of its mode (README.md gives each metric's
// meaning per workload, and the layer entries a workload does not exercise
// read 0).
var endToEnd = []catalogEntry{
	{"setup_s", "s"},
	{"goodput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"reequil_p50_ms", "ms"},
	{"solve_s", "s"},
	{"peak_heap_mb", "MiB"},
}

var perLayer = []catalogEntry{
	{"client.lateness_p99_ms", "ms"},
	{"client.latency_p90_ms", "ms"},
	{"client.latency_p99_ms", "ms"},
	{"client.sent", "count"},
	{"gateway.front_us_p50", "us"},
	{"gateway.front_us_p99", "us"},
	{"admission.admit_ns", "ns"},
	{"admission.denied", "count"},
	{"admission.refills", "count"},
	{"route.pick_ns", "ns"},
	{"forward.hop_us_p50", "us"},
	{"forward.hop_us_p99", "us"},
	{"forward.conn_reuse_ratio", "ratio"},
	{"forward.retry_denied", "count"},
	{"forward.backend_errors", "count"},
	{"backend.service_ms_p50", "ms"},
	{"backend.util", "ratio"},
	{"backend.rejected", "count"},
	{"table.install_us_p50", "us"},
	{"table.installs", "count"},
	{"wire.encode_ms", "ms"},
	{"wire.decode_ms", "ms"},
	{"wire.table_kb", "KiB"},
	{"wal.save_ms_p50", "ms"},
	{"wal.save_ms_p90", "ms"},
	{"fleet.reequil_p90_ms", "ms"},
	{"megascale.solve_ms", "ms"},
	{"megascale.rounds", "count"},
	{"megascale.solves", "count"},
	{"megascale.skips", "count"},
	{"megascale.skip_ratio", "ratio"},
	{"megascale.state_mb", "MiB"},
	{"proc.cpu_us_per_req", "us"},
	{"proc.allocs_per_req", "count"},
	{"proc.alloc_bytes_per_req", "B"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.residual_frac", "ratio"},
}

// layerMetrics starts a per-layer report with every catalog entry at 0 (not
// exercised); set overwrites the ones a workload measures.
type layerMetrics map[string]metric

func newLayerMetrics() layerMetrics {
	lm := make(layerMetrics, len(perLayer))
	for _, e := range perLayer {
		lm[e.name] = metric{name: e.name, unit: e.unit}
	}
	return lm
}

func (lm layerMetrics) set(name string, value float64, n int64) {
	m, ok := lm[name]
	if !ok {
		panic("nashbench: per-layer metric " + name + " is not in the catalog")
	}
	m.value, m.n = value, n
	lm[name] = m
}

// list returns the metrics in catalog order.
func (lm layerMetrics) list() []metric {
	out := make([]metric, 0, len(lm))
	for _, e := range perLayer {
		out = append(out, lm[e.name])
	}
	return out
}
