package serve

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"nashlb/internal/core"
	"nashlb/internal/game"
)

// Scaled-down Table-1 system for live serving: one computer per relative
// speed class, rates scaled so the slowest node serves 5 jobs/s (mean
// service 200ms). The scale matters twice over: per-request HTTP overhead
// on loopback is ~0.6ms per hop, so response times must sit well above it
// for the closed-form comparison to be meaningful, and the offered load
// (~50 req/s) must stay light enough that a small CI machine's CPU does
// not itself become a queueing station. Three users split the paper's
// total load 0.5/0.3/0.2 at utilization 0.55.
var (
	e2eRates    = []float64{5, 10, 25, 50}
	e2eArrivals = []float64{24.75, 14.85, 9.9}
)

// A ~15s measurement window keeps the sample-path mean of the queue waits
// (which correlate across busy periods) close to the ensemble average; the
// seed fixes the arrival/service realization, making the run reproducible.
const (
	e2eDuration = 16 * time.Second
	e2eLoadSeed = 7
)

func solveE2E(t testing.TB) (*game.System, game.Profile) {
	t.Helper()
	sys, err := game.NewSystem(e2eRates, e2eArrivals)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("NASH did not converge on the e2e system")
	}
	return sys, res.Profile
}

// TestEndToEndNashServing is the subsystem's acceptance test: loadgen drives
// nashgate over real sockets against four in-process M/M/1 backends routed
// by the solved Nash profile, and the measured behaviour must match theory:
//
//  1. the empirical per-backend routing split matches the equilibrium
//     aggregate fractions s_j within 2 percentage points, and
//  2. the measured mean response time is within 10% of the closed-form
//     prediction D(s) from game.System (25% under the race detector, whose
//     instrumentation inflates the constant per-request overhead).
func TestEndToEndNashServing(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live serving run")
	}
	sys, profile := solveE2E(t)
	predicted := sys.OverallResponseTime(profile)

	// Equilibrium aggregate fraction of traffic per backend:
	// s_j = sum_i phi_i s_ij / Phi.
	phiTotal := sys.TotalArrival()
	wantFrac := make([]float64, len(e2eRates))
	for i, phi := range e2eArrivals {
		for j, f := range profile[i] {
			wantFrac[j] += phi * f / phiTotal
		}
	}

	backends := make([]*Backend, len(e2eRates))
	urls := make([]string, len(e2eRates))
	for j, mu := range e2eRates {
		b, err := NewBackend(BackendConfig{Rate: mu, Seed: uint64(1000 + j)})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Start(); err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		backends[j] = b
		urls[j] = b.URL()
	}
	g, err := NewGateway(GatewayConfig{
		Backends: urls,
		Rates:    e2eRates,
		Arrivals: e2eArrivals,
		Profile:  profile,
		Seed:     e2eLoadSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	res, err := RunLoad(LoadConfig{
		Target:   g.URL(),
		Arrivals: e2eArrivals,
		Duration: e2eDuration,
		Warmup:   time.Second,
		Seed:     e2eLoadSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Sent {
		if res.Rejected[i] != 0 || res.Failed[i] != 0 {
			t.Fatalf("user %d: %d rejected, %d failed (want clean run)",
				i, res.Rejected[i], res.Failed[i])
		}
		if res.Sent[i] == 0 {
			t.Fatalf("user %d sent nothing", i)
		}
	}

	// (1) Routing split vs equilibrium fractions, within 2 points.
	snap := g.Metrics()
	var total int64
	for _, c := range snap.BackendRequests {
		total += c
	}
	if total == 0 {
		t.Fatal("no requests reached any backend")
	}
	for j, want := range wantFrac {
		got := float64(snap.BackendRequests[j]) / float64(total)
		if d := math.Abs(got - want); d > 0.02 {
			t.Errorf("backend %d: empirical split %.4f vs equilibrium %.4f (|Δ| = %.4f > 0.02)",
				j, got, want, d)
		}
	}

	// (2) Mean response time vs closed form, within tolerance.
	tol := 0.10
	if raceEnabled {
		tol = 0.25
	}
	if rel := math.Abs(res.Mean-predicted) / predicted; rel > tol {
		t.Errorf("mean response time %.4fs vs predicted %.4fs (rel err %.1f%% > %.0f%%)",
			res.Mean, predicted, 100*rel, 100*tol)
	}
	t.Logf("predicted D = %.4fs, measured mean = %.4fs over %d requests; split %v",
		predicted, res.Mean, total, snap.BackendRequests)
}

// TestEndToEndRebalancing starts the gateway on the proportional profile
// with the re-equilibration loop live and verifies that, while real traffic
// flows, the hot-swapped routing improves on the starting allocation. Best
// responses to noisy integer queue depths keep the installed profile
// jittering around the equilibrium, so no single instant is meaningful; the
// test takes the median predicted overall response time of the installed
// profiles over the second half of the loop's best responses — robust to
// the occasional transient excursion — and requires it to close a
// substantial part of the gap between the proportional start and the
// equilibrium optimum.
func TestEndToEndRebalancing(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live serving run")
	}
	// A faster system than the acceptance run: rebalancing feeds on queue
	// depths, so the queues must react within the test window (mean
	// services of 10–100ms, utilization 0.6 for visible depth).
	rates := []float64{10, 20, 50, 100}
	arrivals := []float64{54, 32.4, 21.6}
	sys, err := game.NewSystem(rates, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	solved, err := core.Solve(sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nash := solved.Profile

	backends := make([]*Backend, len(rates))
	urls := make([]string, len(rates))
	for j, mu := range rates {
		b, err := NewBackend(BackendConfig{Rate: mu, Seed: uint64(2000 + j)})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Start(); err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		backends[j] = b
		urls[j] = b.URL()
	}
	g, err := NewGateway(GatewayConfig{
		Backends:    urls,
		Rates:       rates,
		Arrivals:    arrivals,
		Profile:     game.ProportionalProfile(sys),
		Seed:        5,
		PollEvery:   50 * time.Millisecond,
		UpdateEvery: 4, // observe 4 sweeps per best response: steadier estimates
		Alpha:       0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	costPS := sys.OverallResponseTime(g.Profile())
	costNash := sys.OverallResponseTime(nash)

	// The loop is driven by its own progress, not the wall clock: load runs
	// until the balancer has installed wantRebalances best responses, so a
	// slow host gets more time rather than fewer best responses. The
	// deadline only fails a loop that stopped acting. Load comes in windows
	// started back to back, each with its own seed: open-loop Poisson
	// arrivals are memoryless, so abutting windows offer the same process as
	// one long run, and a window's in-flight requests drain while the next
	// one sends. Windows are 6 s, from seed 6 on: 500 ms windows settled
	// further from Nash in trials (ROADMAP item 1).
	const wantRebalances = 28
	const window = 6 * time.Second
	const deadline = 90 * time.Second

	// Sample the installed profile's predicted cost every 100ms, with the
	// rebalance count read just before it; infeasible excursions (a
	// transiently overloading best response would predict +Inf) count as
	// the proportional cost.
	type sample struct {
		rebalances int64
		cost       float64
	}
	var samples []sample
	stop, sampleDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampleDone)
		ticker := time.NewTicker(100 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			r := g.met.rebalances.Load()
			c := sys.OverallResponseTime(g.Profile())
			if math.IsInf(c, 0) || math.IsNaN(c) || c <= 0 {
				c = costPS
			}
			samples = append(samples, sample{r, c})
		}
	}()
	var (
		load    sync.WaitGroup
		errMu   sync.Mutex
		loadErr error
	)
	windows := time.NewTicker(window)
	end := time.Now().Add(deadline)
	for seed := uint64(6); g.met.rebalances.Load() < wantRebalances && time.Now().Before(end); seed++ {
		load.Add(1)
		go func(seed uint64) {
			defer load.Done()
			if _, err := RunLoad(LoadConfig{
				Target:   g.URL(),
				Arrivals: arrivals,
				Duration: window,
				Seed:     seed,
			}); err != nil {
				errMu.Lock()
				loadErr = err
				errMu.Unlock()
			}
		}(seed)
		<-windows.C
	}
	windows.Stop()
	load.Wait()
	close(stop)
	<-sampleDone
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	if got := g.met.rebalances.Load(); got < wantRebalances {
		t.Fatalf("loop stalled: %d polls, %d of %d rebalances within %v", g.met.polls.Load(), got, wantRebalances, deadline)
	}
	// The settled median is over the samples taken from half to all of the
	// wanted best responses; a window still sending after the count is
	// reached adds samples outside that span, which are left out.
	var tail []float64
	for _, s := range samples {
		if s.rebalances >= wantRebalances/2 && s.rebalances <= wantRebalances {
			tail = append(tail, s.cost)
		}
	}
	sort.Float64s(tail)
	med := tail[len(tail)/2]
	// Require the settled median to close at least a quarter of the
	// start→equilibrium gap — a sixth under the race detector. Whether race
	// runs, which wait for the same count of best responses, still need the
	// looser bar is open (ROADMAP item 1).
	closeBy := 4.0
	if raceEnabled {
		closeBy = 6.0
	}
	want := costPS - (costPS-costNash)/closeBy
	if med > want {
		t.Errorf("settled predicted cost %.4fs; want below %.4fs (start %.4fs, equilibrium %.4fs)",
			med, want, costPS, costNash)
	}
	t.Logf("predicted cost: %.4fs (start) -> %.4fs settled median over %d samples from rebalance %d to %d (equilibrium %.4fs)",
		costPS, med, len(tail), wantRebalances/2, wantRebalances, costNash)
}
