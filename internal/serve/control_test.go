package serve

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nashlb/internal/testutil"
)

// sweepFake is a work-hop backend stand-in that lets a test step a
// gateway's control loop one sweep at a time: each status frame announces
// itself on asked and waits on release before it answers ok with depth.
// While fail is set, status frames answer failed at once instead.
type sweepFake struct {
	url     string
	depth   atomic.Int64
	fail    atomic.Bool
	asked   chan struct{}
	release chan struct{}
}

func newSweepFakes(t *testing.T, n int) []*sweepFake {
	done := make(chan struct{})
	fakes := make([]*sweepFake, n)
	for j := range fakes {
		f := &sweepFake{asked: make(chan struct{}), release: make(chan struct{})}
		f.url = fakeWork(t, func(id uint64, kind frameKind) (workReply, bool) {
			if kind == kindStatus {
				if f.fail.Load() {
					return workReply{ID: id, Status: statusFailed}, true
				}
				select {
				case f.asked <- struct{}{}:
				case <-done:
					return workReply{}, false
				}
				select {
				case <-f.release:
				case <-done:
					return workReply{}, false
				}
			}
			return workReply{ID: id, Status: statusOK, Value: float64(f.depth.Load())}, true
		})
		fakes[j] = f
	}
	t.Cleanup(func() { close(done) })
	return fakes
}

// startSweepGateway starts a gateway over the fakes, at rate 10 each, for
// one user at 3 jobs/s, sweeping every millisecond and smoothing nothing.
// Its probes wait out the test (ProbeTimeout 10 s) and retry a failed
// status reply every millisecond.
func startSweepGateway(t *testing.T, fakes []*sweepFake, cfg GatewayConfig) *Gateway {
	t.Helper()
	for _, f := range fakes {
		cfg.Backends = append(cfg.Backends, f.url)
		cfg.Rates = append(cfg.Rates, 10)
	}
	cfg.Arrivals = []float64{3}
	cfg.Alpha = 1
	cfg.ProbeEvery, cfg.ProbeTimeout = time.Millisecond, 10*time.Second
	cfg.RetryBase, cfg.RetryMax = time.Millisecond, time.Millisecond
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// awaitSweep waits until every fake not set to fail holds a status frame
// of the next sweep, which means the loop has finished the sweep before,
// and returns those fakes.
func awaitSweep(t *testing.T, fakes []*sweepFake) []*sweepFake {
	t.Helper()
	var asked []*sweepFake
	for _, f := range fakes {
		if f.fail.Load() {
			continue
		}
		select {
		case <-f.asked:
			asked = append(asked, f)
		case <-time.After(10 * time.Second):
			t.Fatal("no status frame within 10 s")
		}
	}
	return asked
}

// releaseSweep lets the held status frames answer.
func releaseSweep(asked []*sweepFake) {
	for _, f := range asked {
		f.release <- struct{}{}
	}
}

// TestControlLoopSweeps: every complete sweep counts one poll and refreshes
// the saturation estimate. With UpdateEvery k an unmanaged gateway installs
// one best response every k sweeps; a managed one builds no balancer and
// installs none, but still refreshes saturation.
func TestControlLoopSweeps(t *testing.T) {
	const k = 3
	for _, managed := range []bool{false, true} {
		fakes := newSweepFakes(t, 2)
		cfg := GatewayConfig{UpdateEvery: k}
		if managed {
			cfg.OnWeights = func([]float64) {}
		}
		g := startSweepGateway(t, fakes, cfg)
		if managed != (g.policy == nil) {
			t.Fatalf("managed %v: balancer built %v", managed, g.policy != nil)
		}
		for s := 1; s <= 4*k; s++ {
			asked := awaitSweep(t, fakes)
			want := int64((s - 1) / k)
			if managed {
				want = 0
			}
			// Sweep 1 answers depth 100 (rho 0.99) everywhere, so only the
			// estimate after it is saturated; later sweeps answer 0.
			if snap := g.Metrics(); snap.Polls != int64(s-1) || snap.Rebalances != want || g.Saturated() != (s == 2) {
				t.Fatalf("managed %v, after %d sweeps: %d polls, %d best responses, saturated %v; want %d, %d, %v",
					managed, s-1, snap.Polls, snap.Rebalances, g.Saturated(), s-1, want, s == 2)
			}
			depth := int64(0)
			if s == 1 {
				depth = 100
			}
			for _, f := range fakes {
				f.depth.Store(depth)
			}
			releaseSweep(asked)
		}
	}
}

// TestControlLoopSkipsIncompleteSweep: a sweep in which one backend answers
// failed counts that probe failure and feeds neither the balancer nor the
// saturation estimate.
func TestControlLoopSkipsIncompleteSweep(t *testing.T) {
	fakes := newSweepFakes(t, 2)
	g := startSweepGateway(t, fakes, GatewayConfig{UpdateEvery: 2})
	probeFails := func(j int) int64 {
		g.health.mu.Lock()
		defer g.health.mu.Unlock()
		return g.health.probeFails[j]
	}
	check := func(sweeps int, polls, rebalances int64, saturated bool) {
		t.Helper()
		if snap := g.Metrics(); snap.Polls != polls || snap.Rebalances != rebalances || g.Saturated() != saturated {
			t.Fatalf("after %d sweeps: %d polls, %d best responses, saturated %v; want %d, %d, %v",
				sweeps, snap.Polls, snap.Rebalances, g.Saturated(), polls, rebalances, saturated)
		}
	}

	// Sweep 1 answers depth 100 everywhere: saturated. Backend 1 fails the
	// next sweep.
	asked := awaitSweep(t, fakes)
	fakes[0].depth.Store(100)
	fakes[1].depth.Store(100)
	fakes[1].fail.Store(true)
	releaseSweep(asked)

	// Sweep 2: backend 0 answers 0. Had the sweep fed the balancer, its
	// second observation would play a best response; had it fed the
	// estimate, the flag would drop.
	asked = awaitSweep(t, fakes)
	check(1, 1, 0, true)
	fakes[0].depth.Store(0)
	fakes[1].depth.Store(0)
	testutil.WaitFor(t, 10*time.Second, "backend 1's probe never failed", func() bool { return probeFails(1) == 1 })
	fakes[1].fail.Store(false)
	releaseSweep(asked)

	asked = awaitSweep(t, fakes)
	check(2, 1, 0, true)
	if st := g.Metrics().BreakerStates[1]; st != BreakerClosed.String() {
		t.Fatalf("one failed probe left backend 1's breaker %s", st)
	}
	releaseSweep(asked)

	// Sweep 3 is complete at depth 0: the balancer's second observation.
	awaitSweep(t, fakes)
	check(3, 2, 1, false)
}

// TestNewGatewayChecksUpdateEvery: the balancer needs a non-negative
// UpdateEvery and a probe sweep to feed on.
func TestNewGatewayChecksUpdateEvery(t *testing.T) {
	base := GatewayConfig{Backends: []string{"http://127.0.0.1:1"}, Rates: []float64{10}, Arrivals: []float64{3}}
	for _, c := range []struct {
		updateEvery int
		probeEvery  time.Duration
		wantErr     string
	}{
		{-1, time.Second, "negative UpdateEvery"},
		{2, 0, "needs ProbeEvery"},
		{0, 0, ""},
		{2, time.Second, ""},
	} {
		cfg := base
		cfg.UpdateEvery, cfg.ProbeEvery = c.updateEvery, c.probeEvery
		g, err := NewGateway(cfg)
		if c.wantErr == "" && err != nil || c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
			t.Errorf("UpdateEvery %d, ProbeEvery %v: error %v, want %q", c.updateEvery, c.probeEvery, err, c.wantErr)
		}
		if err == nil && (g.policy != nil) != (c.updateEvery > 0) {
			t.Errorf("UpdateEvery %d: balancer built %v", c.updateEvery, g.policy != nil)
		}
	}
}
