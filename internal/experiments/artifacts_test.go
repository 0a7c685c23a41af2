package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// decodeStrict decodes data into v, rejecting fields v does not declare.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// TestCommittedBenchSections decodes the sections of the committed BENCH
// files that this package writes, at the schema it writes them: every
// serving experiment of BENCH_serve.json, and the EXT11 sweep embedded in
// BENCH_core.json, which must also come back unchanged through
// Ext11Result.BenchJSON. cmd/benchjson's tests cover the keys that tool adds.
func TestCommittedBenchSections(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_serve.json")
	if err != nil {
		t.Fatal(err)
	}
	var serve struct {
		serveBench
		Throughput json.RawMessage `json:"throughput"`
	}
	if err := decodeStrict(raw, &serve); err != nil {
		t.Fatalf("BENCH_serve.json: %v", err)
	}
	if serve.Schema != serveBenchSchema {
		t.Fatalf("BENCH_serve.json has schema %d, ServeBenchJSON writes %d", serve.Schema, serveBenchSchema)
	}
	if serve.Ext8 == nil || serve.Ext9 == nil || serve.Ext10 == nil || serve.Ext12 == nil {
		t.Fatal("BENCH_serve.json lacks a serving experiment (ext8, ext9, ext10 and ext12 are all written)")
	}

	raw, err = os.ReadFile("../../BENCH_core.json")
	if err != nil {
		t.Fatal(err)
	}
	var core struct {
		Ext11 json.RawMessage `json:"ext11"`
	}
	if err := json.Unmarshal(raw, &core); err != nil {
		t.Fatalf("BENCH_core.json: %v", err)
	}
	var ext11 Ext11Result
	if err := decodeStrict(core.Ext11, &ext11); err != nil {
		t.Fatalf("BENCH_core.json ext11: %v", err)
	}
	if ext11.Experiment != "ext11_megascale" || len(ext11.Rows) == 0 {
		t.Fatalf("BENCH_core.json ext11 holds %q with %d points", ext11.Experiment, len(ext11.Rows))
	}
	out, err := ext11.BenchJSON()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Indent(&want, core.Ext11, "", "  "); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want.Bytes()) {
		t.Errorf("BENCH_core.json ext11 re-encodes as\n%s\nwant\n%s", out, want.Bytes())
	}
}

// TestServeBenchJSONReproducesCommittedSections decodes each serving section
// of the committed BENCH_serve.json strictly into its result type and
// re-encodes the four through ServeBenchJSON: every section must come back
// unchanged, so the result types carry exactly the committed keys, in the
// committed order.
func TestServeBenchJSONReproducesCommittedSections(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_serve.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed map[string]json.RawMessage
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	var (
		ext8  Ext8Result
		ext9  Ext9Result
		ext10 Ext10Result
		ext12 Ext12Result
	)
	sections := map[string]any{
		"ext8_live_serving": &ext8,
		"ext9_self_healing": &ext9,
		"ext10_fleet":       &ext10,
		"ext12_partition":   &ext12,
	}
	for key, res := range sections {
		if err := decodeStrict(committed[key], res); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
	}
	out, err := ServeBenchJSON(&ext8, &ext9, &ext10, &ext12)
	if err != nil {
		t.Fatal(err)
	}
	var written map[string]json.RawMessage
	if err := json.Unmarshal(out, &written); err != nil {
		t.Fatal(err)
	}
	for key := range sections {
		var want, got bytes.Buffer
		if err := json.Indent(&want, committed[key], "", "  "); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&got, written[key], "", "  "); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s re-encodes as\n%s\nwant\n%s", key, got.Bytes(), want.Bytes())
		}
	}
}
