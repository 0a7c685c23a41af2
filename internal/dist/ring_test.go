package dist

import (
	"errors"
	"math"
	"testing"
	"time"

	"nashlb/internal/core"
	"nashlb/internal/game"
	"nashlb/internal/rng"
)

func testSystem(t testing.TB, m int, rho float64) *game.System {
	t.Helper()
	rates := []float64{100, 100, 50, 50, 20, 20, 10, 10}
	var total float64
	for _, mu := range rates {
		total += mu
	}
	arr := make([]float64, m)
	for i := range arr {
		arr[i] = rho * total / float64(m)
	}
	sys, err := game.NewSystem(rates, arr)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestDistributedMatchesSequentialExactly(t *testing.T) {
	// The token-ring protocol is behaviourally identical to the sequential
	// Gauss–Seidel driver in core: same user order, same norm, so the same
	// rounds and the same equilibrium.
	for _, init := range []core.Init{core.InitZero, core.InitProportional} {
		for _, m := range []int{1, 2, 5, 10} {
			sys := testSystem(t, m, 0.6)
			seq, err := core.Solve(sys, core.Options{Init: init})
			if err != nil {
				t.Fatal(err)
			}
			dst, err := Solve(sys, Options{Init: init})
			if err != nil {
				t.Fatalf("init=%v m=%d: %v", init, m, err)
			}
			if dst.Rounds != seq.Rounds {
				t.Errorf("init=%v m=%d: rounds %d (dist) vs %d (seq)", init, m, dst.Rounds, seq.Rounds)
			}
			for i := range seq.Profile {
				for j := range seq.Profile[i] {
					if math.Abs(dst.Profile[i][j]-seq.Profile[i][j]) > 1e-12 {
						t.Fatalf("init=%v m=%d: profiles differ at [%d][%d]: %v vs %v",
							init, m, i, j, dst.Profile[i][j], seq.Profile[i][j])
					}
				}
			}
		}
	}
}

func TestDistributedResultIsEquilibrium(t *testing.T) {
	sys := testSystem(t, 6, 0.7)
	res, err := Solve(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	ok, impr, err := core.VerifyEquilibrium(sys, res.Profile, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("ring result not an equilibrium (improvement %g)", impr)
	}
}

func TestTCPRingSolve(t *testing.T) {
	sys := testSystem(t, 4, 0.6)
	seq, err := core.Solve(sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveTCP(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != seq.Rounds {
		t.Errorf("TCP rounds %d vs sequential %d", res.Rounds, seq.Rounds)
	}
	if math.Abs(res.OverallTime-seq.OverallTime) > 1e-9 {
		t.Errorf("TCP overall %v vs sequential %v", res.OverallTime, seq.OverallTime)
	}
}

func TestRingWithDuplicatedMessages(t *testing.T) {
	// Duplication on every link: the Dedup layer must make the protocol
	// deliver the exact sequential result anyway.
	sys := testSystem(t, 5, 0.6)
	seq, err := core.Solve(sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := ChanRing(sys.Users())
	flaky := make([]Transport, len(base))
	for i := range base {
		flaky[i] = NewChaos(base[i], ChaosConfig{Dup: 0.5, R: rng.New(uint64(i) + 1)})
	}
	store := NewMemoryStore(sys, nil)
	res, err := Run(sys, store, flaky, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != seq.Rounds || math.Abs(res.OverallTime-seq.OverallTime) > 1e-9 {
		t.Fatalf("duplicated ring diverged: rounds %d vs %d, overall %v vs %v",
			res.Rounds, seq.Rounds, res.OverallTime, seq.OverallTime)
	}
}

func TestRingWithInjectedSendFaults(t *testing.T) {
	// Cut makes Send report failure after actually transmitting; the node
	// retries with the same sequence number and Dedup suppresses the
	// resulting duplicates.
	sys := testSystem(t, 4, 0.5)
	seq, err := core.Solve(sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := ChanRing(sys.Users())
	flaky := make([]Transport, len(base))
	for i := range base {
		flaky[i] = NewChaos(base[i], ChaosConfig{Cut: 0.3, Dup: 0.2, R: rng.New(uint64(i) + 77)})
	}
	res, err := Run(sys, NewMemoryStore(sys, nil), flaky, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.OverallTime-seq.OverallTime) > 1e-9 {
		t.Fatalf("faulty ring diverged: %v vs %v", res.OverallTime, seq.OverallTime)
	}
}

func TestWarmRestartResumesFromStore(t *testing.T) {
	// Simulate a crash/restart: run once, keep the store, rerun the ring on
	// the converged profile. The warm restart must converge immediately
	// (first circulation) and keep the same equilibrium.
	sys := testSystem(t, 6, 0.6)
	store := NewMemoryStore(sys, nil)
	first, err := Run(sys, store, ChanRing(sys.Users()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Rounds < 2 {
		t.Fatalf("cold run suspiciously short: %d rounds", first.Rounds)
	}
	second, err := Run(sys, store, ChanRing(sys.Users()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if second.Rounds > 2 {
		t.Fatalf("warm restart took %d rounds, want <= 2", second.Rounds)
	}
	if math.Abs(second.OverallTime-first.OverallTime) > 1e-9 {
		t.Fatalf("warm restart moved the equilibrium: %v vs %v", second.OverallTime, first.OverallTime)
	}
}

func TestRunMaxRoundsAborts(t *testing.T) {
	sys := testSystem(t, 5, 0.9)
	res, err := Run(sys, NewMemoryStore(sys, nil), ChanRing(sys.Users()), Options{MaxRounds: 2, Epsilon: 1e-15})
	if !errors.Is(err, core.ErrNotConverged) {
		t.Fatalf("want ErrNotConverged, got %v", err)
	}
	if res == nil || res.Converged {
		t.Fatal("aborted run should return an unconverged result")
	}
	// Every node must have exited cleanly (Run returned), and the partial
	// profile must still be feasible.
	if err := sys.CheckProfile(res.Profile); err != nil {
		t.Fatalf("partial profile infeasible: %v", err)
	}
}

func TestRingLivenessGuardDetectsDeadNode(t *testing.T) {
	// One follower loses everything it sends (a dead node, as the rest of
	// the ring sees it): with RecvTimeout armed, the whole ring must fail
	// fast with ErrRecvTimeout instead of deadlocking.
	sys := testSystem(t, 4, 0.5)
	transports := ChanRing(sys.Users())
	transports[2] = NewChaos(transports[2], ChaosConfig{Drop: 1, R: rng.NewSource(1).Stream("dead")})

	done := make(chan error, 1)
	go func() {
		_, err := Run(sys, NewMemoryStore(sys, nil), transports, Options{RecvTimeout: 200 * time.Millisecond})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrRecvTimeout) {
			t.Fatalf("want ErrRecvTimeout, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ring deadlocked despite liveness guard")
	}
}

func TestRingWithTimeoutStillConverges(t *testing.T) {
	// A healthy ring with the guard armed behaves exactly like without it.
	sys := testSystem(t, 5, 0.6)
	seq, err := core.Solve(sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, NewMemoryStore(sys, nil), ChanRing(sys.Users()), Options{RecvTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != seq.Rounds || math.Abs(res.OverallTime-seq.OverallTime) > 1e-9 {
		t.Fatalf("guarded ring diverged: %d rounds vs %d", res.Rounds, seq.Rounds)
	}
}

func TestRunValidation(t *testing.T) {
	sys := testSystem(t, 3, 0.5)
	if _, err := Run(sys, NewMemoryStore(sys, nil), ChanRing(2), Options{}); !errors.Is(err, ErrRingSize) {
		t.Fatalf("ring size mismatch accepted: %v", err)
	}
	bad := &game.System{Rates: []float64{1}, Arrivals: []float64{2}}
	if _, err := Run(bad, NewMemoryStore(sys, nil), ChanRing(1), Options{}); err == nil {
		t.Fatal("invalid system accepted")
	}
}

func TestMemoryStore(t *testing.T) {
	sys := testSystem(t, 2, 0.5)
	st := NewMemoryStore(sys, nil)
	if _, err := st.Available(-1); err == nil {
		t.Error("negative user accepted")
	}
	if _, err := st.Available(5); err == nil {
		t.Error("out-of-range user accepted")
	}
	if err := st.Publish(0, game.Strategy{0.5, 0.5}); err == nil {
		t.Error("wrong-length strategy accepted")
	}
	s := make(game.Strategy, sys.Computers())
	s[0] = 1
	if err := st.Publish(7, s); err == nil {
		t.Error("out-of-range publish accepted")
	}
	if err := st.Publish(0, s); err != nil {
		t.Fatal(err)
	}
	// Snapshot is a copy.
	snap := st.Snapshot()
	snap[0][0] = 0.25
	if st.Snapshot()[0][0] != 1 {
		t.Error("Snapshot leaked internal storage")
	}
	// Available reflects the publish.
	avail, err := st.Available(1)
	if err != nil {
		t.Fatal(err)
	}
	if avail[0] >= sys.Rates[0] {
		t.Error("Available did not subtract user 0's flow")
	}
}

func TestSingleUserRing(t *testing.T) {
	sys, err := game.NewSystem([]float64{30, 10}, []float64{20})
	if err != nil {
		t.Fatal(err)
	}
	res, errSolve := Solve(sys, Options{})
	if errSolve != nil {
		t.Fatal(errSolve)
	}
	direct, err := core.Optimal(sys.Rates, 20)
	if err != nil {
		t.Fatal(err)
	}
	for j := range direct {
		if math.Abs(res.Profile[0][j]-direct[j]) > 1e-12 {
			t.Fatalf("single-node ring %v != OPTIMAL %v", res.Profile[0], direct)
		}
	}
}

func TestChanTransportClose(t *testing.T) {
	ts := ChanRing(2)
	if err := ts[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := ts[0].Close(); err != nil {
		t.Fatal("double close should be safe")
	}
	if _, err := ts[0].Recv(); err == nil {
		t.Fatal("Recv on closed transport should fail")
	}
	if err := ts[0].Send(Message{}); err == nil {
		// Send may succeed while the buffer has room even when closed on
		// the receiving side; only the local close gate matters here.
		t.Log("send after close succeeded via buffer (acceptable)")
	}
}

func BenchmarkRingSolveChan(b *testing.B) {
	sys := testSystem(b, 8, 0.6)
	for i := 0; i < b.N; i++ {
		if _, err := Solve(sys, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRingSolveTCP(b *testing.B) {
	sys := testSystem(b, 4, 0.6)
	for i := 0; i < b.N; i++ {
		if _, err := SolveTCP(sys, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
