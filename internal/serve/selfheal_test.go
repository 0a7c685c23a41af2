package serve

import (
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"nashlb/internal/core"
	"nashlb/internal/game"
	"nashlb/internal/testutil"
)

// aggregateSplit returns the equilibrium aggregate traffic fraction per
// backend, s_j = sum_i phi_i s_ij / Phi.
func aggregateSplit(arrivals []float64, p game.Profile, n int) []float64 {
	var phi float64
	for _, a := range arrivals {
		phi += a
	}
	frac := make([]float64, n)
	for i, a := range arrivals {
		for j, f := range p[i] {
			frac[j] += a * f / phi
		}
	}
	return frac
}

func solveNash(t *testing.T, rates, arrivals []float64) game.Profile {
	t.Helper()
	sys, err := game.NewSystem(rates, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(sys, core.Options{})
	if err != nil || !res.Converged {
		t.Fatalf("solve: %v (converged=%v)", err, res != nil && res.Converged)
	}
	return res.Profile
}

func TestHealthyStatusClassification(t *testing.T) {
	cases := []struct {
		status workStatus
		want   bool
	}{
		{statusOK, true},
		{statusQueueFull, true}, // queue full = busy, not down
		{statusClosing, false},
		{statusFailed, false},
	}
	for _, c := range cases {
		if got := healthyReply(c.status); got != c.want {
			t.Errorf("healthyReply(%s) = %v, want %v", c.status, got, c.want)
		}
	}
}

// TestSelfHealingCrashAndRecovery is the self-healing acceptance run: three
// live backends under open-loop Poisson load, the slowest one crashed
// mid-run (a chaos proxy's Down phase: every connection to it dies
// unanswered, as to a dead process). The health layer must trip its breaker, re-solve the Nash game
// over the two survivors and route the measured split to within 2 points of
// the reduced-game equilibrium with (almost) no client-visible failures;
// when the backend comes back, the recovery ramp must restore the full-set
// equilibrium within RampSteps health epochs.
func TestSelfHealingCrashAndRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live serving run")
	}
	rates := []float64{30, 60, 120}
	arrivals := []float64{63, 42} // rho = 0.5 of the full set
	fullNash := solveNash(t, rates, arrivals)
	survivorNash := solveNash(t, rates[1:], arrivals)
	survivorFrac := aggregateSplit(arrivals, survivorNash, 2)

	// Backend 0 sits behind the proxy that crashes it; 1 and 2 are plain.
	b0 := startBackend(t, BackendConfig{Rate: rates[0], Seed: 3000})
	crash := startChaos(t, ChaosProxyConfig{Target: b0.URL(), Seed: 3003})
	b1 := startBackend(t, BackendConfig{Rate: rates[1], Seed: 3001})
	b2 := startBackend(t, BackendConfig{Rate: rates[2], Seed: 3002})

	g, err := NewGateway(GatewayConfig{
		Backends:     []string{crash.URL(), b1.URL(), b2.URL()},
		Rates:        rates,
		Arrivals:     arrivals,
		Profile:      fullNash,
		Seed:         21,
		Timeout:      time.Second,
		RetryBase:    time.Millisecond,
		RetryMax:     8 * time.Millisecond,
		ProbeEvery:   50 * time.Millisecond,
		ProbeTimeout: 200 * time.Millisecond,
		Breaker:      BreakerConfig{Failures: 3, Cooldown: 400 * time.Millisecond},
		RampSteps:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })

	// Crash backend 0; the prober must trip the breaker and install the
	// survivor equilibrium without any traffic flowing.
	setChaos(t, crash, ChaosPhase{Down: true})
	testutil.WaitFor(t, 5*time.Second, "breaker never opened after crash", func() bool {
		snap := g.Metrics()
		return len(snap.BreakerStates) == 3 && snap.BreakerStates[0] == "open"
	})
	testutil.WaitFor(t, 5*time.Second, "survivor profile never installed", func() bool {
		return g.Metrics().Reequilibrations > 0
	})
	if g.Degraded() {
		t.Fatal("feasible survivor load must not trigger degraded mode")
	}
	p := g.Profile()
	for i := range p {
		if p[i][0] != 0 {
			t.Fatalf("user %d still routes %g to the dead backend", i, p[i][0])
		}
	}

	// Drive load against the two survivors and check the measured split
	// against the reduced-game equilibrium.
	before := g.Metrics()
	res, err := RunLoad(LoadConfig{
		Target:   g.URL(),
		Arrivals: arrivals,
		Duration: 8 * time.Second,
		Warmup:   time.Second,
		Seed:     22,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := g.Metrics()

	var sent, failed int64
	for i := range res.Sent {
		sent += res.Sent[i]
		failed += res.Failed[i]
	}
	if sent == 0 {
		t.Fatal("loadgen sent nothing")
	}
	// Non-shed error budget: after the breaker is open the survivors carry
	// everything, so client-visible failures must stay under 1%.
	if rate := float64(failed) / float64(sent); rate >= 0.01 {
		t.Errorf("failure rate %.3f over %d requests, want < 1%%", rate, sent)
	}
	var servedDelta [3]int64
	var total int64
	for j := range servedDelta {
		servedDelta[j] = after.BackendRequests[j] - before.BackendRequests[j]
		total += servedDelta[j]
	}
	if servedDelta[0] != 0 {
		t.Errorf("dead backend served %d requests", servedDelta[0])
	}
	for j := 0; j < 2; j++ {
		got := float64(servedDelta[j+1]) / float64(total)
		if d := math.Abs(got - survivorFrac[j]); d > 0.02 {
			t.Errorf("survivor %d: split %.4f vs reduced equilibrium %.4f (|Δ| = %.4f > 0.02)",
				j+1, got, survivorFrac[j], d)
		}
	}

	// Recovery: bring the backend back; trial probe + RampSteps health
	// epochs must restore full weights and the full-set Nash profile.
	reequilsAtRecovery := g.Metrics().Reequilibrations
	setChaos(t, crash, ChaosPhase{})
	testutil.WaitFor(t, 10*time.Second, "gateway never returned to nominal", func() bool {
		snap := g.Metrics()
		// Weights hit 1 a beat before the final ramp install lands; wait for
		// the install count too so the profile below is the full-weight solve.
		if snap.Reequilibrations-reequilsAtRecovery < 3 {
			return false
		}
		for _, s := range snap.BreakerStates {
			if s != "closed" {
				return false
			}
		}
		for _, w := range snap.Weights {
			if w != 1 {
				return false
			}
		}
		return true
	})
	// The ramp re-equilibrates at each of the RampSteps weight changes.
	if delta := g.Metrics().Reequilibrations - reequilsAtRecovery; delta < 3 {
		t.Errorf("recovery installed %d re-equilibrations, want >= RampSteps (3)", delta)
	}
	p = g.Profile()
	for i := range p {
		for j := range p[i] {
			if d := math.Abs(p[i][j] - fullNash[i][j]); d > 0.02 {
				t.Errorf("recovered profile s[%d][%d] = %.4f vs equilibrium %.4f", i, j, p[i][j], fullNash[i][j])
			}
		}
	}

	// A short clean run: no failures, and the recovered backend serves again.
	before = g.Metrics()
	res, err = RunLoad(LoadConfig{
		Target:   g.URL(),
		Arrivals: arrivals,
		Duration: 3 * time.Second,
		Warmup:   500 * time.Millisecond,
		Seed:     23,
	})
	if err != nil {
		t.Fatal(err)
	}
	after = g.Metrics()
	for i := range res.Sent {
		if res.Failed[i] != 0 || res.Rejected[i] != 0 {
			t.Errorf("post-recovery user %d: %d failed, %d rejected", i, res.Failed[i], res.Rejected[i])
		}
	}
	if after.BackendRequests[0] == before.BackendRequests[0] {
		t.Error("recovered backend received no traffic")
	}
	t.Logf("survivor split %v vs %v; reequilibrations %d; recovered profile ok",
		servedDelta, survivorFrac, after.Reequilibrations)
}

// TestDegradedModeShedding crashes one of two equal backends (a chaos
// proxy's Down phase) under a load the survivor cannot feasibly carry. Degraded-mode admission must shed the
// excess with 503 + Retry-After, keep roughly the admit fraction of
// requests flowing, and keep the measured mean response of admitted
// requests within 25% of the closed-form M/M/1 prediction for the
// shed-adjusted load (one-sided: token-bucket thinning regularizes the
// arrivals, so the measured mean may fall below the Poisson closed form,
// never meaningfully above it).
func TestDegradedModeShedding(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live serving run")
	}
	rates := []float64{50, 50}
	arrivals := []float64{48, 32} // 80 req/s: infeasible for one survivor
	const degradedRho = 0.8
	nash := solveNash(t, rates, arrivals)

	b0 := startBackend(t, BackendConfig{Rate: rates[0], Seed: 4000})
	b1 := startBackend(t, BackendConfig{Rate: rates[1], Seed: 4001})
	crash := startChaos(t, ChaosProxyConfig{Target: b1.URL(), Seed: 4002})

	g, err := NewGateway(GatewayConfig{
		Backends:     []string{b0.URL(), crash.URL()},
		Rates:        rates,
		Arrivals:     arrivals,
		Profile:      nash,
		Seed:         31,
		Timeout:      2 * time.Second,
		RetryBase:    time.Millisecond,
		RetryMax:     8 * time.Millisecond,
		ProbeEvery:   50 * time.Millisecond,
		ProbeTimeout: 200 * time.Millisecond,
		Breaker:      BreakerConfig{Failures: 3, Cooldown: time.Hour}, // stay down
		DegradedRho:  degradedRho,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })

	setChaos(t, crash, ChaosPhase{Down: true})
	testutil.WaitFor(t, 5*time.Second, "degraded mode never engaged", func() bool {
		return g.Degraded()
	})
	snap := g.Metrics()
	admitRate := degradedRho * rates[0]
	wantFrac := admitRate / (arrivals[0] + arrivals[1])
	if math.Abs(snap.AdmitFraction-wantFrac) > 1e-9 {
		t.Fatalf("admit fraction %.4f, want %.4f", snap.AdmitFraction, wantFrac)
	}

	res, err := RunLoad(LoadConfig{
		Target:   g.URL(),
		Arrivals: arrivals,
		Duration: 10 * time.Second,
		Warmup:   2 * time.Second,
		Seed:     32,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sent, ok, shed, failed int64
	for i := range res.Sent {
		sent += res.Sent[i]
		ok += res.OK[i]
		shed += res.Shed[i]
		failed += res.Failed[i]
	}
	if failed != 0 {
		t.Errorf("%d hard failures; shedding must answer 503, not error", failed)
	}
	if shed == 0 {
		t.Fatal("no requests carried the Retry-After shedding signature")
	}
	okFrac := float64(ok) / float64(sent)
	if okFrac < wantFrac-0.15 || okFrac > wantFrac+0.15 {
		t.Errorf("admitted fraction %.3f far from target %.3f", okFrac, wantFrac)
	}

	// Closed-form check: the survivor is an M/M/1 at the shed-adjusted load.
	predicted := 1 / (rates[0] - admitRate)
	if res.Mean > 1.25*predicted {
		t.Errorf("measured mean %.4fs exceeds 1.25x closed-form %.4fs for the shed-adjusted load",
			res.Mean, predicted)
	}
	if res.Mean < 1/rates[0] {
		t.Errorf("measured mean %.4fs below the service-time floor %.4fs", res.Mean, 1/rates[0])
	}
	t.Logf("shed %d/%d (ok frac %.3f, target %.3f); mean %.4fs vs closed-form %.4fs",
		shed, sent, okFrac, wantFrac, res.Mean, predicted)
}

// TestBreakerTripsOnInjectedErrors drives the health layer through a
// ChaosProxy fault window: a backend whose every request the proxy answers
// with an injected `failed` reply frame must be cut off (probes see the same
// faults), traffic must keep flowing on the healthy backend, and once the
// fault is healed the trial probe must fold the backend back in.
func TestBreakerTripsOnInjectedErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live serving run")
	}
	healthy := startBackend(t, BackendConfig{Rate: 400, Seed: 5000})
	faulty := startBackend(t, BackendConfig{Rate: 400, Seed: 5001})
	proxy := startChaos(t, ChaosProxyConfig{Target: faulty.URL(), Seed: 51})
	setChaos(t, proxy, ChaosPhase{ErrorRate: 1})

	g, err := NewGateway(GatewayConfig{
		Backends:     []string{healthy.URL(), proxy.URL()},
		Rates:        []float64{400, 400},
		Arrivals:     []float64{100},
		Seed:         41,
		Timeout:      time.Second,
		ProbeEvery:   50 * time.Millisecond,
		ProbeTimeout: 200 * time.Millisecond,
		Breaker:      BreakerConfig{Failures: 3, Cooldown: 300 * time.Millisecond},
		RampSteps:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })

	testutil.WaitFor(t, 5*time.Second, "breaker never opened on injected failed replies", func() bool {
		snap := g.Metrics()
		return len(snap.BreakerStates) == 2 && snap.BreakerStates[1] == "open"
	})
	if g.Metrics().BreakerOpens == 0 {
		t.Fatal("BreakerOpens counter not incremented")
	}

	// Requests during the fault window must succeed on the healthy backend.
	client := &http.Client{Timeout: 2 * time.Second}
	for k := 0; k < 20; k++ {
		status, err := chaosGet(t, client, g.URL()+"/submit?user=0")
		if err != nil || status != http.StatusOK {
			t.Fatalf("request %d during fault window: status %d err %v", k, status, err)
		}
	}
	snap := g.Metrics()
	if snap.BackendRequests[0] < 20 {
		t.Fatalf("healthy backend served %d, want all 20", snap.BackendRequests[0])
	}

	// After the heal the trial probe must re-admit the backend.
	setChaos(t, proxy, ChaosPhase{})
	testutil.WaitFor(t, 10*time.Second, "faulty backend never recovered", func() bool {
		snap := g.Metrics()
		return snap.BreakerStates[1] == "closed" && snap.Weights[1] == 1
	})
	testutil.WaitFor(t, 5*time.Second, "recovered backend gets no traffic", func() bool {
		chaosGet(t, client, g.URL()+"/submit?user=0")
		return g.Metrics().BackendRequests[1] > 0
	})
}

// TestGatewayCloseDuringEpoch is the shutdown-race regression test: Close
// must interrupt a probe sweep in flight, return promptly, and freeze all
// counters — no routing-table installs or metric updates after Close
// returns. Run under -race in CI.
func TestGatewayCloseDuringEpoch(t *testing.T) {
	g, _ := newTestCluster(t, GatewayConfig{
		Arrivals:     []float64{200},
		ProbeEvery:   2 * time.Millisecond,
		UpdateEvery:  1,
		ProbeTimeout: 50 * time.Millisecond,
	}, []float64{2000, 2000})

	// Concurrent submitters keep request traffic (and passive health
	// reports) in flight across the Close.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	client := &http.Client{Timeout: time.Second}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(g.URL() + "/submit?user=0")
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	// Let several epochs overlap the traffic, then close mid-epoch.
	testutil.WaitFor(t, 5*time.Second, "sweeps never ran beside the traffic", func() bool {
		return g.Metrics().Polls >= 5
	})
	start := time.Now()
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("Close took %v; the gateway context should abort in-flight epochs", took)
	}
	close(stop)
	wg.Wait()

	// Counters must be frozen once Close has returned.
	before := g.Metrics()
	time.Sleep(50 * time.Millisecond)
	after := g.Metrics()
	if before.Polls != after.Polls || before.Rebalances != after.Rebalances ||
		before.Reequilibrations != after.Reequilibrations {
		t.Fatalf("loop state advanced after Close: polls %d->%d, rebalances %d->%d, reequils %d->%d",
			before.Polls, after.Polls, before.Rebalances, after.Rebalances,
			before.Reequilibrations, after.Reequilibrations)
	}
}
