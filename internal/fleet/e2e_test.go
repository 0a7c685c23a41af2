package fleet

import (
	"math"
	"testing"
	"time"

	"nashlb/internal/core"
	"nashlb/internal/game"
	"nashlb/internal/serve"
	"nashlb/internal/testutil"
)

// The serve-package e2e system: one backend per Table-1 speed class, scaled
// so the slowest serves 5 jobs/s, three users splitting ~49.5 req/s at
// utilization 0.55. The fleet spreads that load over three gateways; the
// aggregate routing across the fleet must still land on the full-game Nash.
var (
	fleetE2ERates    = []float64{5, 10, 25, 50}
	fleetE2EArrivals = []float64{24.75, 14.85, 9.9}
)

// TestFleetLeaderKillE2E is the tentpole acceptance test: three gateways
// serve live traffic against shared backends, the solver leader is killed
// mid-window, and the fleet must ride through it —
//
//  1. the non-shed error rate stays under 1% (refused connections fail over
//     to surviving gateways),
//  2. a survivor assumes leadership and installs a new reign's table within
//     two seconds of the kill (detection is MaxMisses heartbeats, the new
//     leader solves immediately on assumption), and
//  3. the post-failover aggregate backend split across survivors stays
//     within 2 points of the full-game Nash equilibrium.
func TestFleetLeaderKillE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live serving run")
	}
	sys, err := game.NewSystem(fleetE2ERates, fleetE2EArrivals)
	if err != nil {
		t.Fatal(err)
	}
	solved, err := core.Solve(sys, core.Options{})
	if err != nil || !solved.Converged {
		t.Fatalf("full-game solve: converged=%v err=%v", solved.Converged, err)
	}
	phiTotal := sys.TotalArrival()
	wantFrac := make([]float64, len(fleetE2ERates))
	for i, phi := range fleetE2EArrivals {
		for j, f := range solved.Profile[i] {
			wantFrac[j] += phi * f / phiTotal
		}
	}

	machines := make([]Machine, len(fleetE2ERates))
	for j, mu := range fleetE2ERates {
		b, err := serve.NewBackend(serve.BackendConfig{Rate: mu, Seed: uint64(3000 + j)})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Start(); err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		machines[j] = Machine{URL: b.URL(), Rate: mu, Active: true}
	}

	const nNodes = 3
	nodes := make([]*Node, nNodes)
	peers := make([]string, nNodes)
	targets := make([]string, nNodes)
	for i := range nodes {
		n, err := NewNode(Config{
			ID:       i,
			Machines: machines,
			Arrivals: fleetE2EArrivals,
			Gateway:  serve.GatewayConfig{Seed: uint64(10 + i)},
			// Faster estimate tracking than the defaults: after the kill the
			// survivors absorb the dead gateway's traffic share, and the
			// leader's aggregate game should re-converge to the full load
			// within a couple of supervision epochs.
			EstimateAlpha: 0.5,
			EstimateEvery: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		peers[i] = n.ControlURL()
	}
	for i, n := range nodes {
		if err := n.Start(peers); err != nil {
			t.Fatal(err)
		}
		targets[i] = n.GatewayURL()
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Kill()
		}
	}()

	// Survivor-side aggregate backend counts (each gateway routes its own
	// share; the equilibrium claim is about their sum).
	survivorCounts := func() []int64 {
		out := make([]int64, len(machines))
		for _, n := range nodes[1:] {
			snap := n.Gateway().Metrics()
			for j, c := range snap.BackendRequests {
				out[j] += c
			}
		}
		return out
	}

	const (
		duration = 20 * time.Second
		killAt   = 3 * time.Second
		// The equilibrium claim is about the settled post-failover regime:
		// the split baseline is taken once the re-elected leader's arrival
		// estimates have re-absorbed the dead gateway's traffic share.
		settle = 2500 * time.Millisecond
	)
	type chaosResult struct {
		killErr   error
		recovered bool
		recoverIn time.Duration
		baseline  []int64 // survivor counts at recovery, pre-measurement
	}
	chaosDone := make(chan chaosResult, 1)
	go func() {
		var cr chaosResult
		time.Sleep(killAt)
		killedAt := time.Now()
		cr.killErr = nodes[0].Kill()
		// Wait until both survivors agree on the new leader and carry an
		// epoch >= 2 table, at most 3 s after the kill. This runs off the
		// test goroutine, so it records the outcome where testutil.WaitFor
		// would call t.Fatal.
		cr.recovered = testutil.Eventually(time.Until(killedAt.Add(3*time.Second)), func() bool {
			for _, n := range nodes[1:] {
				if e, _ := n.TableEpoch(); n.Leader() != 1 || e < 2 {
					return false
				}
			}
			return true
		})
		cr.recoverIn = time.Since(killedAt)
		time.Sleep(settle)
		cr.baseline = survivorCounts()
		chaosDone <- cr
	}()

	res, err := serve.RunLoad(serve.LoadConfig{
		Targets:  targets,
		Arrivals: fleetE2EArrivals,
		Duration: duration,
		Warmup:   time.Second,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	cr := <-chaosDone
	if cr.killErr != nil {
		t.Fatalf("leader kill: %v", cr.killErr)
	}
	if !cr.recovered {
		t.Fatal("fleet did not re-elect and re-solve within 3s of the leader kill")
	}
	if cr.recoverIn > 2*time.Second {
		t.Errorf("equilibrium recovery took %v, want under 2s", cr.recoverIn)
	}
	if got := nodes[1].Elections(); got < 1 {
		t.Errorf("new leader recorded %d elections, want >= 1", got)
	}
	t.Logf("recovered in %v; %d failovers", cr.recoverIn, res.Failovers)

	// (1) Non-shed error rate: everything that was sent post-warmup and
	// neither answered 200 nor was deliberately shed is an error.
	var sent, ok, shed int64
	for i := range res.Sent {
		sent += res.Sent[i]
		ok += res.OK[i]
		shed += res.Shed[i]
	}
	if sent == 0 {
		t.Fatal("load generator sent nothing")
	}
	errRate := float64(sent-ok-shed) / float64(sent)
	maxErr := 0.01
	if raceEnabled {
		maxErr = 0.02
	}
	if errRate > maxErr {
		t.Errorf("non-shed error rate %.4f > %.3f (sent %d, ok %d, shed %d)",
			errRate, maxErr, sent, ok, shed)
	}
	if res.Failovers == 0 {
		t.Error("no failovers recorded: the kill never exercised the client failover path")
	}

	// (3) Post-failover aggregate split vs the full-game Nash fractions.
	final := survivorCounts()
	var total int64
	diff := make([]int64, len(final))
	for j := range final {
		diff[j] = final[j] - cr.baseline[j]
		total += diff[j]
	}
	if total < 100 {
		t.Fatalf("only %d post-failover samples; measurement window collapsed", total)
	}
	tol := 0.02
	if raceEnabled {
		tol = 0.035
	}
	for j, want := range wantFrac {
		got := float64(diff[j]) / float64(total)
		if d := math.Abs(got - want); d > tol {
			t.Errorf("backend %d: post-failover split %.4f vs Nash %.4f (|Δ| = %.4f > %.3f)",
				j, got, want, d, tol)
		}
	}
	t.Logf("post-failover split over %d requests: %v (want %v)", total, diff, wantFrac)
}
