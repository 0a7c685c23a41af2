package dist

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"nashlb/internal/core"
	"nashlb/internal/rng"
	"nashlb/internal/testutil"
)

// chaosWrap builds a Wrap hook that puts the same seeded chaos on every
// link (including the leader's — it only re-injects, never crashes).
func chaosWrap(seed uint64, cfg ChaosConfig) func(int, Transport) Transport {
	src := rng.NewSource(seed)
	return func(id int, tr Transport) Transport {
		c := cfg
		c.R = src.Stream(fmt.Sprintf("link%d", id))
		return NewChaos(tr, c)
	}
}

func TestSupervisorCleanRunMatchesSequential(t *testing.T) {
	// Without faults the supervised ring is behaviourally the plain ring:
	// same rounds, same profile, one generation, zero recoveries.
	sys := testSystem(t, 6, 0.6)
	seq, err := core.Solve(sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Supervise(sys, NewMemoryStore(sys, nil), SupervisorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != seq.Rounds {
		t.Errorf("rounds %d vs sequential %d", res.Rounds, seq.Rounds)
	}
	if res.Recoveries != 0 || res.Generations != 1 || len(res.Ejected) != 0 {
		t.Errorf("clean run recorded faults: %+v", res)
	}
	for i := range seq.Profile {
		for j := range seq.Profile[i] {
			if math.Abs(res.Profile[i][j]-seq.Profile[i][j]) > 1e-12 {
				t.Fatalf("profiles differ at [%d][%d]", i, j)
			}
		}
	}
}

func TestSupervisedChaosMatchesSequential(t *testing.T) {
	// Seeded drop/dup/delay/reorder on every link. Token recovery must keep
	// the ring converging, no node may be ejected, and the recovered
	// equilibrium must match the sequential solver.
	sys := testSystem(t, 6, 0.6)
	seq, err := core.Solve(sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Supervise(sys, NewMemoryStore(sys, nil), SupervisorOptions{
		RecvTimeout:   40 * time.Millisecond,
		MaxMisses:     6,
		MaxRecoveries: 500,
		Wrap: chaosWrap(0xc4a05, ChaosConfig{
			Drop:      0.03,
			Dup:       0.10,
			DelayProb: 0.20,
			MaxDelay:  2 * time.Millisecond,
			Reorder:   0.05,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("chaos run did not converge")
	}
	if len(res.Ejected) != 0 {
		t.Fatalf("chaos without crashes ejected nodes: %v", res.Ejected)
	}
	ok, impr, err := core.VerifyEquilibrium(sys, res.Profile, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("chaos result not an equilibrium (improvement %g)", impr)
	}
	if math.Abs(res.OverallTime-seq.OverallTime) > 1e-6 {
		t.Fatalf("chaos equilibrium drifted: %v vs sequential %v", res.OverallTime, seq.OverallTime)
	}
}

func TestSupervisorEjectsDeadNode(t *testing.T) {
	// Node 3 crashes permanently after its second token. The supervisor
	// must eject it, freeze its strategy at the last published value, and
	// let the survivors reach the reduced game's Nash equilibrium.
	sys := testSystem(t, 6, 0.5)
	store := NewMemoryStore(sys, nil)
	src := rng.NewSource(0xe1ec7)
	res, err := Supervise(sys, store, SupervisorOptions{
		RecvTimeout:   30 * time.Millisecond,
		MaxMisses:     2,
		MaxRecoveries: 100,
		Wrap: func(id int, tr Transport) Transport {
			if id != 3 {
				return tr
			}
			return NewChaos(tr, ChaosConfig{CrashAfterRecvs: 2, R: src.Stream("crash")})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ejected) != 1 || res.Ejected[0] != 3 {
		t.Fatalf("want ejection of node 3, got %v", res.Ejected)
	}
	if res.Recoveries == 0 {
		t.Error("ejection without any recovery recorded")
	}
	p := res.Profile
	if err := sys.CheckProfile(p); err != nil {
		t.Fatalf("final profile infeasible: %v", err)
	}
	if isZero(p[3]) {
		t.Fatal("ejected node's strategy was not frozen at its published value")
	}
	// Reduced-game Nash property: no SURVIVOR can improve by deviating
	// (node 3's frozen flow is part of their environment).
	for i := range p {
		if i == 3 {
			continue
		}
		avail := sys.AvailableRates(p, i)
		best, err := core.Optimal(avail, sys.Arrivals[i])
		if err != nil {
			t.Fatalf("survivor %d best response: %v", i, err)
		}
		gain := core.ResponseTime(avail, sys.Arrivals[i], p[i]) -
			core.ResponseTime(avail, sys.Arrivals[i], best)
		if gain > 1e-6 {
			t.Errorf("survivor %d can still improve by %g", i, gain)
		}
	}
}

func TestSupervisorRestartsCrashedNode(t *testing.T) {
	// Node 2 crashes mid-run but Restart revives it: no ejection, at least
	// one restart, and the full-game equilibrium is still reached.
	sys := testSystem(t, 5, 0.6)
	seq, err := core.Solve(sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewSource(0x4e5)
	res, err := Supervise(sys, NewMemoryStore(sys, nil), SupervisorOptions{
		RecvTimeout:   40 * time.Millisecond,
		MaxMisses:     5,
		MaxRecoveries: 100,
		Restart:       true,
		RestartDelay:  5 * time.Millisecond,
		Wrap: func(id int, tr Transport) Transport {
			if id != 2 {
				return tr
			}
			return NewChaos(tr, ChaosConfig{CrashAfterRecvs: 3, R: src.Stream("crash")})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts < 1 {
		t.Error("crash was scheduled but no restart recorded")
	}
	if len(res.Ejected) != 0 {
		t.Fatalf("restarted node was ejected: %v", res.Ejected)
	}
	ok, impr, err := core.VerifyEquilibrium(sys, res.Profile, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("restart result not an equilibrium (improvement %g)", impr)
	}
	if math.Abs(res.OverallTime-seq.OverallTime) > 1e-6 {
		t.Fatalf("restart equilibrium drifted: %v vs %v", res.OverallTime, seq.OverallTime)
	}
}

func TestCrashedFollowerRestartsViaRunNode(t *testing.T) {
	// The multi-process shape of crash-then-restart: follower 2 (its own
	// RunNode, as in cmd/nashd -mode node) dies mid-round; the recovering
	// leader re-injects lost tokens; the operator restarts the follower
	// with a bumped epoch; the ring still reaches core.Solve's equilibrium.
	sys := testSystem(t, 4, 0.6)
	seq, err := core.Solve(sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemoryStore(sys, nil)
	base := ChanRing(sys.Users())
	chaos := NewChaos(base[2], ChaosConfig{CrashAfterRecvs: 2})

	type out struct {
		res *NodeResult
		err error
	}
	outs := make([]chan out, sys.Users())
	run := func(i int, tr Transport, epoch uint64) {
		cfg := NodeConfig{
			ID: i, Users: sys.Users(), Arrival: sys.Arrivals[i], Epoch: epoch,
		}
		if i == 0 {
			cfg.RecvTimeout = 50 * time.Millisecond
			cfg.Recover = true
			cfg.MaxRecoveries = 50
		}
		res, err := RunNode(cfg, store, tr)
		outs[i] <- out{res, err}
	}
	for i := 0; i < sys.Users(); i++ {
		outs[i] = make(chan out, 1)
		tr := base[i]
		if i == 2 {
			tr = chaos
		}
		go run(i, tr, 0)
	}

	// The follower must die with the injected crash...
	select {
	case o := <-outs[2]:
		if !errors.Is(o.err, ErrCrashed) {
			t.Fatalf("follower exit: want ErrCrashed, got %v", o.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower never crashed")
	}
	// ...and be restarted with a bumped epoch on the same endpoint.
	chaos.Revive()
	go run(2, chaos, 1)

	for i := 0; i < sys.Users(); i++ {
		select {
		case o := <-outs[i]:
			if o.err != nil {
				t.Fatalf("node %d: %v", i, o.err)
			}
			if !o.res.Converged {
				t.Fatalf("node %d saw an aborted run", i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("node %d did not finish", i)
		}
	}
	final := store.Snapshot()
	ok, impr, err := core.VerifyEquilibrium(sys, final, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("restarted ring not at equilibrium (improvement %g)", impr)
	}
	if d := math.Abs(sys.OverallResponseTime(final) - seq.OverallTime); d > 1e-6 {
		t.Fatalf("restarted ring drifted from sequential equilibrium by %g", d)
	}
}

func TestTimeoutNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for k := 0; k < 20; k++ {
		// An unfed ring endpoint: Recv blocks until Close.
		to := &Timeout{Inner: ChanRing(2)[0], D: 2 * time.Millisecond}
		if _, err := to.Recv(); !errors.Is(err, ErrRecvTimeout) {
			t.Fatalf("want ErrRecvTimeout, got %v", err)
		}
		to.Close() // must release the background receive
	}
	if !testutil.Eventually(2*time.Second, func() bool {
		runtime.Gosched()
		return runtime.NumGoroutine() <= before
	}) {
		t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
	}
}

func TestTimeoutDeliversLateMessage(t *testing.T) {
	// A message that arrives after a timeout is delivered by the next Recv,
	// not lost — token recovery depends on late tokens being seen (and then
	// discarded by generation, not by disappearing).
	ts := ChanRing(2)
	to := &Timeout{Inner: ts[0], D: 15 * time.Millisecond}
	defer to.Close()
	if _, err := to.Recv(); !errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
	if err := ts[1].Send(Message{Kind: Token, Round: 7}); err != nil {
		t.Fatal(err)
	}
	m, err := to.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Round != 7 {
		t.Fatalf("late message corrupted: %+v", m)
	}
}

func TestTimeoutRecvAfterClose(t *testing.T) {
	to := &Timeout{Inner: ChanRing(2)[0], D: time.Hour}
	to.Close()
	if _, err := to.Recv(); err == nil || errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("Recv after Close: want closed error, got %v", err)
	}
}

func TestBackoffSchedule(t *testing.T) {
	b := &Backoff{Base: time.Millisecond, Max: 8 * time.Millisecond}
	want := []time.Duration{1, 2, 4, 8, 8, 8}
	for i, w := range want {
		if got := b.Next(); got != w*time.Millisecond {
			t.Fatalf("attempt %d: got %v, want %v", i, got, w*time.Millisecond)
		}
	}
	b.Reset()
	if got := b.Next(); got != time.Millisecond {
		t.Fatalf("after Reset: got %v, want 1ms", got)
	}
}

func TestBackoffJitterRange(t *testing.T) {
	b := &Backoff{Base: 4 * time.Millisecond, Max: 4 * time.Millisecond, R: rng.New(99)}
	for i := 0; i < 50; i++ {
		d := b.Next()
		if d < 2*time.Millisecond || d >= 4*time.Millisecond {
			t.Fatalf("jittered delay %v outside [2ms, 4ms)", d)
		}
	}
}

func TestChaosDropAndDup(t *testing.T) {
	ts := ChanRing(2)
	// Drop everything: nothing arrives.
	dropAll := NewChaos(ts[1], ChaosConfig{Drop: 1, R: rng.New(1)})
	if err := dropAll.Send(Message{Kind: Token, Round: 1}); err != nil {
		t.Fatal(err)
	}
	to := &Timeout{Inner: ts[0], D: 20 * time.Millisecond}
	defer to.Close()
	if _, err := to.Recv(); !errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("dropped message was delivered (%v)", err)
	}
	// Duplicate everything: one send, two arrivals.
	dupAll := NewChaos(ts[1], ChaosConfig{Dup: 1, R: rng.New(2)})
	if err := dupAll.Send(Message{Kind: Token, Round: 2, Seq: 5}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		m, err := to.Recv()
		if err != nil {
			t.Fatalf("copy %d: %v", k, err)
		}
		if m.Round != 2 || m.Seq != 5 {
			t.Fatalf("copy %d corrupted: %+v", k, m)
		}
	}
}

// TestChaosCutDeliversAndFails: a cut send delivers the message and still
// reports failure, so the sender's retry is a duplicate, which Dedup on the
// receiving side absorbs.
func TestChaosCutDeliversAndFails(t *testing.T) {
	ts := ChanRing(2)
	cut := NewChaos(ts[1], ChaosConfig{Cut: 1, R: rng.New(4)})
	recv := NewDedup(&Timeout{Inner: ts[0], D: 20 * time.Millisecond})
	defer recv.Close()
	m := Message{Kind: Token, Round: 3, From: 1, Seq: 8}
	if err := cut.Send(m); !errors.Is(err, errInjectedCut) {
		t.Fatalf("cut send: want the injected fault, got %v", err)
	}
	if got, err := recv.Recv(); err != nil || got.Round != 3 || got.Seq != 8 {
		t.Fatalf("cut send was not delivered: %+v (%v)", got, err)
	}
	// The retry goes out too and fails again; Dedup drops the copy.
	if err := cut.Send(m); !errors.Is(err, errInjectedCut) {
		t.Fatalf("retried cut send: want the injected fault, got %v", err)
	}
	if got, err := recv.Recv(); !errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("the retried copy got past Dedup: %+v (%v)", got, err)
	}
}

func TestChaosReorderSwapsMessages(t *testing.T) {
	ts := ChanRing(2)
	re := NewChaos(ts[1], ChaosConfig{Reorder: 1, R: rng.New(3)})
	if err := re.Send(Message{Kind: Token, Round: 1}); err != nil {
		t.Fatal(err)
	}
	if err := re.Send(Message{Kind: Token, Round: 2}); err != nil {
		t.Fatal(err)
	}
	first, err := ts[0].Recv()
	if err != nil {
		t.Fatal(err)
	}
	second, err := ts[0].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if first.Round != 2 || second.Round != 1 {
		t.Fatalf("expected swapped order, got rounds %d then %d", first.Round, second.Round)
	}
}

func TestChaosCrashAndRevive(t *testing.T) {
	ts := ChanRing(2)
	c := NewChaos(ts[0], ChaosConfig{CrashAfterRecvs: 1})
	if err := ts[1].Send(Message{Kind: Token, Round: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want crash on first receive, got %v", err)
	}
	if !c.Crashed() {
		t.Fatal("Crashed() false after crash")
	}
	if err := c.Send(Message{}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("send on crashed node: want ErrCrashed, got %v", err)
	}
	c.Revive()
	if c.Crashed() {
		t.Fatal("still crashed after Revive")
	}
	if err := ts[1].Send(Message{Kind: Token, Round: 9}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Recv()
	if err != nil {
		t.Fatalf("revived receive: %v", err)
	}
	if m.Round != 9 {
		t.Fatalf("revived receive corrupted: %+v", m)
	}
}

func TestTCPSendRejectsOversizedMessage(t *testing.T) {
	ts, err := TCPRingConfig(2, TCPConfig{MaxMessage: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()
	if err := ts[0].Send(Message{Kind: Token, Round: 1, Norm: 0.5}); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("want ErrMessageTooLarge, got %v", err)
	}
}

func TestDecodeMessageRejectsInvalid(t *testing.T) {
	for _, bad := range []string{
		``,
		`not json`,
		`{"kind":7,"round":1}`,
		`{"kind":0,"round":-3}`,
		`{"kind":0,"round":1,"from":-1}`,
	} {
		if _, err := decodeMessage([]byte(bad)); err == nil {
			t.Errorf("decodeMessage(%q) accepted invalid input", bad)
		}
	}
	m, err := decodeMessage([]byte(`{"kind":1,"round":3,"aborted":true,"seq":9,"from":2,"gen":4}`))
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != Done || m.Round != 3 || !m.Aborted || m.Seq != 9 || m.From != 2 || m.Gen != 4 {
		t.Fatalf("valid message mangled: %+v", m)
	}
}

func TestDedupIsPerSenderAndEpoch(t *testing.T) {
	ts := ChanRing(2)
	d := NewDedup(ts[0])
	send := func(m Message) {
		t.Helper()
		if err := ts[1].Send(m); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() Message {
		t.Helper()
		m, err := d.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	send(Message{Kind: Token, Round: 1, From: 1, Seq: 5})
	if m := recv(); m.Round != 1 {
		t.Fatalf("first message dropped: %+v", m)
	}
	// Duplicate (same sender, same seq) is suppressed; the ring rewired to
	// a new predecessor (different From) with a LOWER seq must get through.
	send(Message{Kind: Token, Round: 1, From: 1, Seq: 5})
	send(Message{Kind: Token, Round: 2, From: 3, Seq: 1})
	if m := recv(); m.From != 3 || m.Round != 2 {
		t.Fatalf("rewired predecessor's message dropped: %+v", m)
	}
	// A restarted sender (higher epoch) resets the seq high-water mark...
	send(Message{Kind: Token, Round: 3, From: 1, Seq: 1, Epoch: 1})
	if m := recv(); m.Round != 3 {
		t.Fatalf("restarted sender's message dropped: %+v", m)
	}
	// ...and its pre-restart stragglers are discarded.
	send(Message{Kind: Token, Round: 1, From: 1, Seq: 6, Epoch: 0})
	send(Message{Kind: Token, Round: 4, From: 1, Seq: 2, Epoch: 1})
	if m := recv(); m.Round != 4 {
		t.Fatalf("straggler from old epoch delivered: %+v", m)
	}
}
