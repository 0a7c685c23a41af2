package serve

import (
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"
)

// BenchmarkServeThroughput is the BENCH_serve.json schema-4 family
// (bench.sh runs it and cmd/benchjson -serve merges the numbers):
//
//   - hot:    the rewritten gateway-added per-request work, in-process —
//     the tentpole's req/s and allocs/op claim.
//   - legacy: the pre-PR per-request work on identical inputs — the
//     denominator of the ≥3x speedup gate (verify.sh recomputes the ratio
//     from these two).
//   - e2e:    a full round trip from one serial HTTP client through a
//     started gateway and the work hop to a started Backend whose service
//     takes about a microsecond — the honest number including net/http on
//     the front hop, reported with the per-request wall time.
//
// Every sub-benchmark reports req/s via ReportMetric so the JSON carries
// throughput directly instead of leaving readers to invert ns/op.
func BenchmarkServeThroughput(b *testing.B) {
	b.Run("hot", func(b *testing.B) {
		g := hotGateway(b)
		benchmarkHotPath(b, g)
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})

	b.Run("legacy", func(b *testing.B) {
		g := hotGateway(b)
		benchmarkLegacyPath(b, g)
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})

	b.Run("e2e", func(b *testing.B) {
		backend, err := NewBackend(BackendConfig{Rate: 1e6, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		if err := backend.Start(); err != nil {
			b.Fatal(err)
		}
		defer backend.Close()

		g, err := NewGateway(GatewayConfig{
			Backends: []string{backend.URL()},
			Rates:    []float64{1000},
			Arrivals: []float64{1},
			Seed:     11,
			FillRate: 1e12,
			Burst:    1e12,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := g.Start(); err != nil {
			b.Fatal(err)
		}
		defer g.Close()

		client := &http.Client{Timeout: 5 * time.Second}
		defer client.CloseIdleConnections()
		url := g.URL() + "/submit?user=0"

		// One warm request outside the timer primes both connection pools.
		if err := benchGet(client, url); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := benchGet(client, url); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
}

func benchGet(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// BenchmarkShardedAdmission isolates the admission limiter: the sharded
// bucket against the mutex reference, sequential and parallel.
func BenchmarkShardedAdmission(b *testing.B) {
	b.Run("sharded", func(b *testing.B) {
		bk := NewShardedTokenBucket(1e12, 1e12)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bk.Admit()
		}
	})
	b.Run("sharded-parallel", func(b *testing.B) {
		bk := NewShardedTokenBucket(1e12, 1e12)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				bk.Admit()
			}
		})
	})
	b.Run("mutex", func(b *testing.B) {
		bk := NewTokenBucket(1e12, 1e12)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bk.Allow()
		}
	})
	b.Run("mutex-parallel", func(b *testing.B) {
		bk := NewTokenBucket(1e12, 1e12)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				bk.Allow()
			}
		})
	})
}

var sinkOut []byte

// BenchmarkAppendSubmitResponse isolates the zero-alloc response encode.
func BenchmarkAppendSubmitResponse(b *testing.B) {
	var out []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out = appendSubmitResponse(out[:0], 7, 2, 0.012345, 0.0456)
	}
	sinkOut = out
}
