// Command benchjson converts `go test -bench` text output into the
// machine-readable BENCH_core.json document (schema nashlb/bench-core/v2,
// documented in EXPERIMENTS.md). It reads benchmark output on stdin —
// possibly spanning several packages and several -count repetitions — and
// writes one JSON document to stdout. With -ext11 FILE, the EXT11
// planet-scale scaling sweep (written by `experiments -benchcore`) is
// embedded verbatim under the "ext11" key, putting the solve-time and
// memory curves next to the microbenchmarks they explain.
//
// With -serve FILE the tool switches to merge mode for BENCH_serve.json
// (schema 5): the parsed benchmarks are placed under the "throughput" key
// of FILE, preserving every other key the serving experiments wrote
// (ext8/ext9/ext10/ext12). A schema-4 document (schema 5 minus the ext12
// key) is migrated to 5 in place with all keys preserved; any other schema
// version is refused with an error instead of silently overwritten — a
// stale or foreign document is a bug to surface, not data to clobber.
//
// Repeated runs of the same benchmark are folded into a single entry
// keeping the fastest ns/op (the standard best-of-N reading, least noise)
// and the worst-case allocation counts (a regression must not hide behind
// one lucky run). Where a seed baseline is known, the entry also carries
// the baseline and the resulting speedup, so the ≥3× DES gate and the
// zero-allocation gates are visible in the artifact itself.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// baseline holds the seed-commit (e917521) numbers for a benchmark shape,
// measured on the same machine class as CI (single-vCPU Xeon @ 2.10GHz,
// see EXPERIMENTS.md). Entries without a baseline are simply reported.
type baseline struct {
	nsPerOp     float64
	allocsPerOp int64
}

var seedBaselines = map[string]baseline{
	// Verbatim copy of the seed container/heap kernel, same workloads.
	"nashlb/internal/des.BenchmarkCoreKernelOnly":       {nsPerOp: 65.3, allocsPerOp: 1},
	"nashlb/internal/des.BenchmarkCoreEventLoopTyped":   {nsPerOp: 97.6, allocsPerOp: 1},
	"nashlb/internal/des.BenchmarkCoreEventLoopClosure": {nsPerOp: 97.6, allocsPerOp: 1},
	"nashlb/internal/des.BenchmarkCoreDeepHeap":         {nsPerOp: 382.4, allocsPerOp: 1},
	// Seed cluster.Simulate, Table-1 shape, Duration 2000 (~18.3k jobs at
	// ~1.25M jobs/sec) with per-job closure allocations.
	"nashlb/internal/cluster.BenchmarkCoreClusterSimulate": {nsPerOp: 1.47e7, allocsPerOp: 71986},
	// Seed gateway observe path: one global histogram mutex.
	"nashlb/internal/serve.BenchmarkCoreGatewayRecord":       {nsPerOp: 160, allocsPerOp: 0},
	"nashlb/internal/serve.BenchmarkCoreGatewayRecordSerial": {nsPerOp: 160, allocsPerOp: 0},
}

type entry struct {
	Pkg         string             `json:"pkg"`
	Name        string             `json:"name"`
	Runs        int                `json:"runs"`
	Iters       int64              `json:"iters"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`

	SeedNsPerOp     float64 `json:"seed_ns_per_op,omitempty"`
	SeedAllocsPerOp *int64  `json:"seed_allocs_per_op,omitempty"`
	SpeedupVsSeed   float64 `json:"speedup_vs_seed,omitempty"`
}

type document struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go"`
	Goos       string   `json:"goos"`
	Goarch     string   `json:"goarch"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []*entry `json:"benchmarks"`
	// Ext11 is the EXT11 planet-scale scaling sweep, embedded verbatim from
	// the -ext11 file when given (see internal/experiments.Ext11).
	Ext11 json.RawMessage `json:"ext11,omitempty"`
}

// coreSchema is the BENCH_core.json schema the default mode writes.
const coreSchema = "nashlb/bench-core/v2"

// serveSchema is the BENCH_serve.json schema version the merge mode writes
// (schema 5 = serving experiments incl. ext12_partition plus the
// "throughput" key). serveSchemaPrev documents the one older version the
// merge migrates in place: schema 4 is schema 5 minus the ext12 key, so
// upgrading it loses nothing.
const (
	serveSchema     = 5
	serveSchemaPrev = 4
)

func main() {
	ext11Flag := flag.String("ext11", "", "EXT11 sweep JSON (from `experiments -benchcore`) to embed under the ext11 key")
	serveFlag := flag.String("serve", "", "merge the parsed benchmarks into this BENCH_serve.json (schema 5; schema 4 is migrated) under the throughput key")
	flag.Parse()

	doc, err := scanBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *serveFlag != "" {
		existing, err := os.ReadFile(*serveFlag)
		if err != nil && !os.IsNotExist(err) {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		merged, err := mergeServe(existing, doc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: refusing to write %s: %v\n", *serveFlag, err)
			os.Exit(1)
		}
		if err := writeFileAtomic(*serveFlag, merged); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	if *ext11Flag != "" {
		raw, err := os.ReadFile(*ext11Flag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if !json.Valid(raw) {
			fmt.Fprintf(os.Stderr, "benchjson: %s is not valid JSON\n", *ext11Flag)
			os.Exit(1)
		}
		doc.Ext11 = json.RawMessage(raw)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// scanBench parses `go test -bench` text output into a bench-core
// document, folding repeated runs and attaching seed baselines.
func scanBench(r io.Reader) (*document, error) {
	doc := &document{Schema: coreSchema, GoVersion: runtime.Version()}
	byKey := map[string]*entry{}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			e, err := parseBenchLine(pkg, line)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: skipping %q: %v\n", line, err)
				continue
			}
			key := e.Pkg + "." + e.Name
			prev, ok := byKey[key]
			if !ok {
				byKey[key] = e
				doc.Benchmarks = append(doc.Benchmarks, e)
				continue
			}
			prev.Runs++
			if e.NsPerOp < prev.NsPerOp { // best-of for speed and metrics
				prev.NsPerOp, prev.Iters, prev.Metrics = e.NsPerOp, e.Iters, e.Metrics
			}
			if e.BytesPerOp > prev.BytesPerOp { // worst-of for allocations
				prev.BytesPerOp = e.BytesPerOp
			}
			if e.AllocsPerOp > prev.AllocsPerOp {
				prev.AllocsPerOp = e.AllocsPerOp
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}

	for _, e := range doc.Benchmarks {
		if b, ok := seedBaselines[e.Pkg+"."+e.Name]; ok {
			e.SeedNsPerOp = b.nsPerOp
			allocs := b.allocsPerOp
			e.SeedAllocsPerOp = &allocs
			if e.NsPerOp > 0 {
				e.SpeedupVsSeed = round3(b.nsPerOp / e.NsPerOp)
			}
		}
	}
	return doc, nil
}

// throughputSection is what mergeServe places under the "throughput" key:
// the environment header plus the parsed benchmark entries.
type throughputSection struct {
	GoVersion  string   `json:"go"`
	Goos       string   `json:"goos"`
	Goarch     string   `json:"goarch"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []*entry `json:"benchmarks"`
}

// mergeServe folds doc's benchmarks into an existing BENCH_serve.json body
// (nil or empty when the file does not exist yet) under the "throughput"
// key, keeping every other top-level key intact. A schema-serveSchemaPrev
// document is migrated to serveSchema in place (the newer schema only adds
// keys); any other schema — or a body that is not a JSON object at all — is
// refused: the caller must not overwrite data it does not understand.
func mergeServe(existing []byte, doc *document) ([]byte, error) {
	top := map[string]json.RawMessage{}
	if len(existing) > 0 {
		if err := json.Unmarshal(existing, &top); err != nil {
			return nil, fmt.Errorf("existing document is not a JSON object: %v", err)
		}
		if raw, ok := top["schema"]; ok {
			var schema int
			if err := json.Unmarshal(raw, &schema); err != nil {
				return nil, fmt.Errorf("existing document has a non-numeric schema %s", raw)
			}
			switch schema {
			case serveSchema:
			case serveSchemaPrev:
				// Schema 4 is a strict subset of schema 5 (no
				// ext12_partition key): migrate in place, preserving every
				// key the old document carried.
			default:
				return nil, fmt.Errorf("existing document has schema %d, this tool writes schema %d (and migrates only schema %d) — regenerate it (experiments -run ext8,ext9,ext10,ext12 -benchjson FILE) or delete it first", schema, serveSchema, serveSchemaPrev)
			}
		}
	}
	schemaRaw, err := json.Marshal(serveSchema)
	if err != nil {
		return nil, err
	}
	top["schema"] = schemaRaw
	section := throughputSection{
		GoVersion:  doc.GoVersion,
		Goos:       doc.Goos,
		Goarch:     doc.Goarch,
		CPU:        doc.CPU,
		Benchmarks: doc.Benchmarks,
	}
	sectionRaw, err := json.Marshal(section)
	if err != nil {
		return nil, err
	}
	top["throughput"] = sectionRaw
	return json.MarshalIndent(top, "", "  ")
}

// writeFileAtomic writes data via a temp file and rename so a crashed run
// never leaves a truncated BENCH_serve.json behind.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".benchjson-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, path)
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkCoreKernelOnly-4  66936292  16.61 ns/op  60200825 events/sec  0 B/op  0 allocs/op
//
// The name's -GOMAXPROCS suffix is stripped; value/unit pairs after the
// iteration count become ns_per_op, bytes_per_op, allocs_per_op, or custom
// metrics (b.ReportMetric columns such as events/sec).
func parseBenchLine(pkg, line string) (*entry, error) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return nil, fmt.Errorf("too few fields")
	}
	name := f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("iteration count: %w", err)
	}
	e := &entry{Pkg: pkg, Name: name, Runs: 1, Iters: iters}
	for i := 2; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return nil, fmt.Errorf("value %q: %w", f[i], err)
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			e.NsPerOp = val
		case "B/op":
			e.BytesPerOp = int64(val)
		case "allocs/op":
			e.AllocsPerOp = int64(val)
		default:
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[unit] = val
		}
	}
	if e.NsPerOp == 0 && e.Metrics == nil {
		return nil, fmt.Errorf("no ns/op column")
	}
	return e, nil
}

func round3(x float64) float64 {
	return float64(int64(x*1000+0.5)) / 1000
}
