package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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
