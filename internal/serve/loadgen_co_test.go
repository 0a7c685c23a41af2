package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestLatencyRecorderClamp pins the recorder invariant: corrected latency
// (from intended start) can never be below the observed send-to-completion
// latency — an early wakeup is clamped, not credited.
func TestLatencyRecorderClamp(t *testing.T) {
	lr := newLatencyRecorder()
	lr.record(0.001, 0.010) // fired 9ms early: intended-start delta is smaller
	lr.record(0.500, 0.010) // stalled: intended-start delta dominates
	corr := summarize(lr.corrected)
	uncorr := summarize(lr.uncorrected)
	if corr.Count != 2 || uncorr.Count != 2 {
		t.Fatalf("counts (%d, %d), want (2, 2)", corr.Count, uncorr.Count)
	}
	if corr.Max < 0.45 {
		t.Fatalf("corrected max %g lost the stall sample", corr.Max)
	}
	// The clamped sample must have been recorded as 0.010, not 0.001.
	if corr.P50 < uncorr.P50 {
		t.Fatalf("corrected p50 %g below uncorrected %g: early-fire clamp broken", corr.P50, uncorr.P50)
	}
}

// TestCoordinatedOmissionCorrection is the satellite regression test: a
// closed-loop run against a backend with a scripted stall (requests arriving
// 400 ms to 1 s after start are held for 600 ms). The single synchronous
// connection blocks for the whole stall, so almost no requests actually
// experience it and the uncorrected percentiles come out clean — the
// classic coordinated-omission lie. The corrected percentiles charge every
// schedule-delayed request its backlog wait and must surface the stall.
func TestCoordinatedOmissionCorrection(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock load test; skipped in -short")
	}
	const stall = 600 * time.Millisecond

	start := time.Now()
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if since := time.Since(start); since >= 400*time.Millisecond && since < time.Second {
			select {
			case <-time.After(stall):
			case <-r.Context().Done():
				return
			}
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok"))
	}))
	defer backend.Close()

	res, err := RunLoad(LoadConfig{
		Target:      backend.URL,
		Arrivals:    []float64{200},
		Duration:    1500 * time.Millisecond,
		Warmup:      100 * time.Millisecond,
		Seed:        9,
		Timeout:     5 * time.Second,
		Mode:        "closed",
		Connections: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrected.Count == 0 || res.Corrected.Count != res.Uncorrected.Count {
		t.Fatalf("recorder counts corrected=%d uncorrected=%d", res.Corrected.Count, res.Uncorrected.Count)
	}

	stallS := stall.Seconds()
	// The corrected view must reflect the stall: the blocked worker's
	// backlog spreads intended-start latencies across the whole stall.
	if res.Corrected.Max < 0.5*stallS {
		t.Fatalf("corrected max %.3fs never saw the %.1fs stall", res.Corrected.Max, stallS)
	}
	if res.Corrected.P90 < 0.2*stallS {
		t.Fatalf("corrected p90 %.3fs too small for a %.1fs stall", res.Corrected.P90, stallS)
	}
	// The uncorrected view must provably understate it: only the one
	// request actually in flight experienced the delay, so the bulk of the
	// distribution stays fast.
	if res.Uncorrected.P90 > 0.1*stallS {
		t.Fatalf("uncorrected p90 %.3fs unexpectedly reflects the stall — coordinated omission did not occur", res.Uncorrected.P90)
	}
	if res.Corrected.P99 < 3*res.Uncorrected.P99 {
		t.Fatalf("corrected p99 %.3fs not meaningfully above uncorrected %.3fs",
			res.Corrected.P99, res.Uncorrected.P99)
	}
	t.Logf("corrected p50/p90/p99/max = %.3f/%.3f/%.3f/%.3f s; uncorrected = %.3f/%.3f/%.3f/%.3f s",
		res.Corrected.P50, res.Corrected.P90, res.Corrected.P99, res.Corrected.Max,
		res.Uncorrected.P50, res.Uncorrected.P90, res.Uncorrected.P99, res.Uncorrected.Max)
}

// TestClosedLoopBasics checks the closed-loop generator's accounting on a
// healthy fast target: every user sees traffic in roughly its arrival
// share, all outcomes are OK, and the corrected and uncorrected summaries
// agree within scheduling noise.
func TestClosedLoopBasics(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock load test; skipped in -short")
	}
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()

	res, err := RunLoad(LoadConfig{
		Target:      backend.URL,
		Arrivals:    []float64{150, 50},
		Duration:    900 * time.Millisecond,
		Warmup:      100 * time.Millisecond,
		Seed:        4,
		Timeout:     5 * time.Second,
		Mode:        "closed",
		Connections: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := res.OK[0] + res.OK[1]
	if total == 0 {
		t.Fatal("no OK responses")
	}
	if res.Failed[0]+res.Failed[1] > 0 {
		t.Fatalf("%d failures against a healthy stub", res.Failed[0]+res.Failed[1])
	}
	// User 0 carries 75% of the rate; allow generous sampling noise.
	share := float64(res.OK[0]) / float64(total)
	if share < 0.55 || share > 0.92 {
		t.Fatalf("user 0 share %.2f far from arrival share 0.75", share)
	}
	if res.Corrected.Count != res.Uncorrected.Count {
		t.Fatalf("recorder counts diverge: %d vs %d", res.Corrected.Count, res.Uncorrected.Count)
	}
	// Healthy and unsaturated: the corrected p50 should be close to the
	// uncorrected one (no backlog to charge).
	if res.Corrected.P50 > 20*res.Uncorrected.P50+0.02 {
		t.Fatalf("corrected p50 %.4fs vs uncorrected %.4fs on an idle system", res.Corrected.P50, res.Uncorrected.P50)
	}
}
