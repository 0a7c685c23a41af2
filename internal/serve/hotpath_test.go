package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
)

var (
	sinkInt     int
	sinkService float64
)

func hotGateway(t testing.TB) *Gateway {
	t.Helper()
	g, err := NewGateway(GatewayConfig{
		Backends: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		Rates:    []float64{3, 1},
		Arrivals: []float64{1, 1, 1},
		Seed:     11,
		FillRate: 1e12,
		Burst:    1e12,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAppendSubmitResponse pins the wire form: what the append encoder
// emits must decode back into an identical SubmitResponse via encoding/json
// and keep the Encoder's trailing newline.
func TestAppendSubmitResponse(t *testing.T) {
	cases := []SubmitResponse{
		{User: 0, Backend: 0, ServiceSeconds: 0, ElapsedSeconds: 0},
		{User: 7, Backend: 2, ServiceSeconds: 0.012345678901234567, ElapsedSeconds: 1.5},
		{User: 999999, Backend: 31, ServiceSeconds: 1.2e-07, ElapsedSeconds: 42.25},
	}
	for _, want := range cases {
		out := appendSubmitResponse(nil, want.User, want.Backend, want.ServiceSeconds, want.ElapsedSeconds)
		if !bytes.HasSuffix(out, []byte("}\n")) {
			t.Fatalf("missing Encoder-compatible trailing newline: %q", out)
		}
		var got SubmitResponse
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatalf("invalid JSON %q: %v", out, err)
		}
		if got != want {
			t.Fatalf("round trip %q: got %+v, want %+v", out, got, want)
		}
	}
	// Non-finite inputs must still emit valid JSON.
	out := appendSubmitResponse(nil, 1, 1, math.Inf(1), math.NaN())
	var got SubmitResponse
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatalf("non-finite floats produced invalid JSON %q: %v", out, err)
	}
}

// replyFrame is an encoded ok reply carrying a 12.345 ms service time.
func replyFrame() []byte {
	frame := make([]byte, replyFrameLen)
	encodeReply(frame, workReply{ID: 1, Status: statusOK, Value: 0.012345})
	return frame
}

// TestForwardPathAllocs gates the tentpole claim the same way the DES
// kernel is gated: the gateway-added work around a forwarded request —
// sharded admission, pre-resolved routing, reply frame read into the
// connection's buffer and decoded, response encode, response-time
// observation — runs at zero steady-state allocations. (net/http's own
// allocations on the front hop are outside this claim;
// BenchmarkServeThroughput/e2e reports them honestly.)
func TestForwardPathAllocs(t *testing.T) {
	g := hotGateway(t)
	payload := replyFrame()
	reader := bytes.NewReader(payload)
	conn := &workConn{}
	sc := g.scratch.Get().(*fwdScratch)
	defer g.scratch.Put(sc)

	run := func() {
		if !g.bucket.Admit() {
			t.Fatal("admission denied with an effectively unlimited bucket")
		}
		backend, ok := g.pickBackend(1)
		if !ok {
			t.Fatal("no routable backend")
		}
		reader.Reset(payload)
		if _, err := io.ReadFull(reader, conn.buf[:]); err != nil {
			t.Fatal(err)
		}
		reply, err := decodeReply(conn.buf[:])
		if err != nil {
			t.Fatal(err)
		}
		service := reply.Value
		sc.out = appendSubmitResponse(sc.out[:0], 1, backend, service, 0.001)
		g.met.observe(1, 0.001)
		sinkInt = backend
		sinkService = service
	}
	run() // warm pools and grow buffers once

	if allocs := testing.AllocsPerRun(2000, run); allocs != 0 {
		t.Fatalf("forward path allocates %.1f per request; want 0", allocs)
	}
}

// TestHotPathSpeedup is the ≥3x acceptance gate, measured in-process so the
// ratio is robust to machine speed: the rewritten per-request work (sharded
// admission, reply frame decode, hand-rolled encode into pooled scratch)
// against the pre-rewrite per-request work (mutex bucket, io.ReadAll of a JSON
// body, json.Unmarshal, json.Encoder) on the same routing table and
// service time.
func TestHotPathSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates the atomic-heavy hot path; ratio is only meaningful without it")
	}
	g := hotGateway(t)

	hot := testing.Benchmark(func(b *testing.B) {
		benchmarkHotPath(b, g)
	})
	legacy := testing.Benchmark(func(b *testing.B) {
		benchmarkLegacyPath(b, g)
	})
	hotNs := float64(hot.NsPerOp())
	legacyNs := float64(legacy.NsPerOp())
	t.Logf("hot %.0f ns/op (%d allocs), legacy %.0f ns/op (%d allocs), speedup %.2fx",
		hotNs, hot.AllocsPerOp(), legacyNs, legacy.AllocsPerOp(), legacyNs/hotNs)
	if legacyNs < 3*hotNs {
		t.Fatalf("hot path %.0f ns/op vs legacy %.0f ns/op: speedup %.2fx < 3x",
			hotNs, legacyNs, legacyNs/hotNs)
	}
}

// benchmarkHotPath exercises the rewritten gateway-added per-request work.
func benchmarkHotPath(b *testing.B, g *Gateway) {
	payload := replyFrame()
	reader := bytes.NewReader(payload)
	conn := &workConn{}
	sc := g.scratch.Get().(*fwdScratch)
	defer g.scratch.Put(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.bucket.Admit()
		backend, _ := g.pickBackend(1)
		reader.Reset(payload)
		_, _ = io.ReadFull(reader, conn.buf[:])
		reply, _ := decodeReply(conn.buf[:])
		service := reply.Value
		sc.out = appendSubmitResponse(sc.out[:0], 1, backend, service, 0.001)
		g.met.observe(1, 0.001)
		sinkInt = backend
		sinkService = service
	}
}

// benchmarkLegacyPath reproduces the pre-rewrite per-request work on the same
// inputs: one global-mutex token bucket, io.ReadAll of the backend's JSON
// body, reflective json.Unmarshal of the service time, and a fresh
// json.Encoder for the response (the alias pick itself was already O(1)
// before the rewrite and is shared by both paths).
func benchmarkLegacyPath(b *testing.B, g *Gateway) {
	payload := []byte(`{"service_s":0.012345}` + "\n")
	bucket := NewTokenBucket(1e12, 1e12)
	var out strings.Builder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bucket.Allow()
		backend, _ := g.pickBackend(1)
		body, _ := legacyReadAll(bytes.NewReader(payload))
		var work struct {
			ServiceSeconds float64 `json:"service_s"`
		}
		_ = json.Unmarshal(body, &work)
		out.Reset()
		_ = json.NewEncoder(&out).Encode(SubmitResponse{
			User:           1,
			Backend:        backend,
			ServiceSeconds: work.ServiceSeconds,
			ElapsedSeconds: 0.001,
		})
		g.met.observe(1, 0.001)
		sinkInt = backend
		sinkService = work.ServiceSeconds
	}
}

// legacyReadAll is io.ReadAll as the old forward called it — a fresh
// buffer per request.
func legacyReadAll(r *bytes.Reader) ([]byte, error) {
	buf := make([]byte, 0, 512)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			return buf, nil
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}
