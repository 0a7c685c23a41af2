package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty quantile is not NaN")
	}
	failed := []float64{1, 2, 3, math.Inf(1)}
	if got := quantile(failed, 0.5); got != 2.5 {
		t.Errorf("median below the failures = %v, want 2.5", got)
	}
	if got := quantile(failed, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 reaching a failure = %v, want +Inf", got)
	}
}

func TestWindowedQuantileIgnoresOneNoisyWindow(t *testing.T) {
	// 2000 samples give ten windows of 200 for the p95 (ten beyond each).
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i % 100)
	}
	want := windowedQuantile(xs, 0.95)
	for i := 0; i < 200; i++ {
		xs[i] = 1e6 // one window hit by a stall
	}
	if got := windowedQuantile(xs, 0.95); got != want {
		t.Fatalf("one noisy window moved the windowed p95 from %v to %v", want, got)
	}
	if got := quantile(sortedCopy(xs), 0.95); got != 1e6 {
		t.Fatalf("plain p95 = %v: the stall should reach it", got)
	}
}

func TestLatenciesCountFailuresAsMisses(t *testing.T) {
	ok := reqSample{intended: 0, sent: time.Millisecond, done: 3 * time.Millisecond, status: 200, backend: 0}
	failed := reqSample{intended: 0, sent: 0, done: time.Millisecond, status: 503, backend: -1}
	lat := latenciesMs([]reqSample{failed, ok})
	if lat[0] != 3 || !math.IsInf(lat[1], 1) {
		t.Fatalf("latencies %v: want the corrected 3 ms, then +Inf for the failure", lat)
	}
	if late := latenessMs([]reqSample{ok}); late[0] != 1 {
		t.Fatalf("lateness %v, want 1 ms", late)
	}
}

func TestSelfTimes(t *testing.T) {
	s := &reqSample{sent: 0, done: 100 * time.Microsecond, status: 200, backend: 1,
		elapsed: 60e-6, service: 10e-6}
	self := selfTimes(appendRequestSpans(nil, 7, s))
	want := map[string]time.Duration{
		layerClient:  40 * time.Microsecond,
		layerGateway: 50 * time.Microsecond,
		layerBackend: 10 * time.Microsecond,
	}
	for layer, d := range want {
		if got := self[layer]; len(got) != 1 || got[0] != d {
			t.Errorf("%s self time %v, want %v", layer, got, d)
		}
	}
}
