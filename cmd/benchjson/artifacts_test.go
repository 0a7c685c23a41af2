package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// decodeStrict decodes data into v, rejecting fields v does not declare.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// TestCommittedArtifactsDecode decodes every committed BENCH_*.json at the
// schema this tool writes: BENCH_core.json as a whole bench-core document,
// BENCH_serve.json's schema version and throughput section. The serving
// experiments' own sections are decoded by internal/experiments' tests.
func TestCommittedArtifactsDecode(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json found")
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		switch name {
		case "BENCH_core.json":
			var doc document
			if err := decodeStrict(raw, &doc); err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if doc.Schema != coreSchema || len(doc.Benchmarks) == 0 || len(doc.Ext11) == 0 {
				t.Errorf("%s: schema %q with %d benchmarks and ext11 %t, want %q with both",
					name, doc.Schema, len(doc.Benchmarks), len(doc.Ext11) > 0, coreSchema)
			}
		case "BENCH_serve.json":
			var top struct {
				Schema     int             `json:"schema"`
				Throughput json.RawMessage `json:"throughput"`
			}
			if err := json.Unmarshal(raw, &top); err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if top.Schema != serveSchema {
				t.Errorf("%s: schema %d, this tool writes %d", name, top.Schema, serveSchema)
			}
			var section throughputSection
			if err := decodeStrict(top.Throughput, &section); err != nil {
				t.Errorf("%s throughput: %v", name, err)
			} else if len(section.Benchmarks) == 0 {
				t.Errorf("%s: throughput section holds no benchmarks", name)
			}
		default:
			t.Errorf("%s: no schema is known for this artifact", name)
		}
	}
}

// citedBenchName matches the BENCH names the docs cite: a serving or EXT11
// section, or a benchmark of the families bench.sh records.
var citedBenchName = regexp.MustCompile(
	`\bext[0-9]+_[a-z0-9_]+|\bBenchmark(?:Core|ServeThroughput|ShardedAdmission|AppendSubmitResponse)[A-Za-z0-9_/=*-]*`)

// missingBenchNames returns the names doc cites that no committed name
// answers. A name ending in "/" or "*" must prefix a committed one; any
// other must equal one or be the benchmark function of committed
// sub-benchmarks.
func missingBenchNames(doc string, committed []string) []string {
	var missing []string
	for _, cited := range citedBenchName.FindAllString(doc, -1) {
		prefix := strings.TrimSuffix(cited, "*")
		if prefix == cited && !strings.HasSuffix(cited, "/") {
			prefix = cited + "/"
		}
		found := false
		for _, name := range committed {
			found = found || name == cited || strings.HasPrefix(name, prefix)
		}
		if !found {
			missing = append(missing, cited)
		}
	}
	return missing
}

// TestDocsCiteCommittedBenchNames checks every BENCH name README.md,
// EXPERIMENTS.md and DESIGN.md cite against the committed BENCH_serve.json
// and BENCH_core.json.
func TestDocsCiteCommittedBenchNames(t *testing.T) {
	var committed []string
	raw, err := os.ReadFile("../../BENCH_core.json")
	if err != nil {
		t.Fatal(err)
	}
	var core document
	if err := json.Unmarshal(raw, &core); err != nil {
		t.Fatalf("BENCH_core.json: %v", err)
	}
	var ext11 struct {
		Experiment string `json:"experiment"`
	}
	if err := json.Unmarshal(core.Ext11, &ext11); err != nil {
		t.Fatalf("BENCH_core.json ext11: %v", err)
	}
	committed = append(committed, ext11.Experiment)
	for _, b := range core.Benchmarks {
		committed = append(committed, b.Name)
	}
	raw, err = os.ReadFile("../../BENCH_serve.json")
	if err != nil {
		t.Fatal(err)
	}
	var serve map[string]json.RawMessage
	if err := json.Unmarshal(raw, &serve); err != nil {
		t.Fatalf("BENCH_serve.json: %v", err)
	}
	var throughput throughputSection
	if err := json.Unmarshal(serve["throughput"], &throughput); err != nil {
		t.Fatalf("BENCH_serve.json throughput: %v", err)
	}
	for key := range serve {
		committed = append(committed, key)
	}
	for _, b := range throughput.Benchmarks {
		committed = append(committed, b.Name)
	}

	if got := missingBenchNames("`BenchmarkCoreNoSuchBench`, `ext99_none`, `BenchmarkServeThroughput/`", committed); len(got) != 2 {
		t.Fatalf("the check finds %q missing, want the first two names", got)
	}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		text, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range missingBenchNames(string(text), committed) {
			t.Errorf("%s cites %s, which no committed BENCH file holds", doc, name)
		}
	}
}
