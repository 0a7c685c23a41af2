package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"nashlb/internal/fleet/audit"
	"nashlb/internal/game"
	"nashlb/internal/serve"
	"nashlb/internal/testutil"
)

// isolateLink is a switchable partition: while cut, node `who` is alone on
// one side and everyone else on the other (symmetric netsplit).
type isolateLink struct {
	who int
	cut atomic.Bool
}

func (p *isolateLink) Allow(from, to int) bool {
	if !p.cut.Load() {
		return true
	}
	return (from == p.who) == (to == p.who)
}

// Seeded timer jitter: periods spread over [1-span/2, 1+span/2) of nominal,
// and actually vary — co-started nodes must drift out of lockstep.
func TestFleetJitterSpacingVaries(t *testing.T) {
	n, err := NewNode(Config{ID: 0, Machines: testMachines(20), Arrivals: []float64{3}, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer n.ln.Close()
	d := 100 * time.Millisecond
	lo := time.Duration((1 - jitterSpan/2) * float64(d))
	hi := time.Duration((1 + jitterSpan/2) * float64(d))
	seen := make(map[time.Duration]bool)
	for i := 0; i < 200; i++ {
		j := n.jitter(d)
		if j < lo || j > hi {
			t.Fatalf("jitter(%v) = %v outside [%v, %v]", d, j, lo, hi)
		}
		seen[j] = true
	}
	if len(seen) < 20 {
		t.Fatalf("only %d distinct jittered periods in 200 draws; spacing does not vary", len(seen))
	}
}

// The fleet control-plane gauges ride the gateway's /metrics exposition.
func TestFleetMetricsGauges(t *testing.T) {
	nodes := startFleet(t, 2, testMachines(20, 40), []float64{3, 2}, nil)
	waitLeader(t, nodes, 0, 5*time.Second)
	testutil.WaitFor(t, 5*time.Second, "epoch 1 installed on the leader", func() bool {
		e, _ := nodes[0].TableEpoch()
		return e >= 1
	})
	resp, err := http.Get(nodes[0].GatewayURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"fleet_leader_id 0",
		"fleet_generation 1",
		"fleet_table_epoch 1",
		"fleet_elections 1",
		"fleet_quorum_ok 1",
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// The quorum tentpole: a leader partitioned into a minority must stop
// leading (no solves, no distributions), keep serving its last-installed
// table flagged as degraded, and rejoin cleanly — adopting the majority's
// newer generation — when the partition heals.
func TestFleetMinorityPartitionDegradesAndHeals(t *testing.T) {
	link := &isolateLink{who: 0}
	tr := &audit.Trace{}
	nodes := startFleet(t, 3, testMachines(20, 40), []float64{3, 2}, func(c *Config) {
		c.HeartbeatEvery = 15 * time.Millisecond
		c.MaxMisses = 2
		c.SolveEvery = 50 * time.Millisecond
		c.Link = link
		c.Trace = tr
		c.Seed = 7
	})
	waitLeader(t, nodes, 0, 5*time.Second)
	testutil.WaitFor(t, 5*time.Second, "epoch 1 installed everywhere", func() bool {
		for _, n := range nodes {
			if e, _ := n.TableEpoch(); e < 1 {
				return false
			}
		}
		return true
	})
	genBefore := nodes[1].Generation()

	link.cut.Store(true) // node 0 (the leader) is now alone

	// The majority side must elect node 1 at a strictly newer generation.
	testutil.WaitFor(t, 5*time.Second, "majority elects node 1 at a newer generation", func() bool {
		return nodes[1].Leader() == 1 && nodes[2].Leader() == 1 && nodes[1].Generation() > genBefore
	})
	// The minority side must depose itself: no leader, no quorum, degraded
	// flag surfaced on the data plane — but still serving its last table.
	testutil.WaitFor(t, 5*time.Second, "minority node 0 degrades", func() bool {
		return nodes[0].Leader() == -1 && !nodes[0].QuorumOK() && nodes[0].Gateway().ControlDegraded()
	})
	if e, v := nodes[0].TableEpoch(); e < 1 || v < 1 {
		t.Fatalf("minority node dropped its last-installed table: (%d, %d)", e, v)
	}
	var bk serve.BackendsStatus
	resp, err := http.Get(nodes[0].GatewayURL() + "/backends")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&bk); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !bk.FleetDegraded {
		t.Fatal("/backends does not surface fleet_degraded on the minority node")
	}
	solvesDuring := nodes[0].Solves()

	link.cut.Store(false) // heal

	// On heal the lowest-ID rule reasserts: node 0 reclaims at yet another
	// new generation, and every replica converges on it.
	testutil.WaitFor(t, 5*time.Second, "fleet reconverges on node 0 post-heal", func() bool {
		for _, n := range nodes {
			if n.Leader() != 0 {
				return false
			}
		}
		return nodes[0].QuorumOK() && !nodes[0].Gateway().ControlDegraded()
	})
	if got := nodes[0].Generation(); got <= nodes[1].Generation()-1 && got <= genBefore {
		t.Fatalf("healed node 0 leads at generation %d, not beyond the partition-era %d", got, genBefore)
	}
	if nodes[0].Solves() != solvesDuring {
		// Solves counted between deposition and heal would mean the minority
		// kept running supervision epochs.
		t.Logf("note: node 0 solves moved from %d to %d across heal (expected: only post-reclaim)", solvesDuring, nodes[0].Solves())
	}
	if vs := audit.Check(tr.Events()); len(vs) != 0 {
		t.Fatalf("audit violations across partition/heal: %+v", vs)
	}
}

// Regression: a deposed leader that heals must adopt the newer reign's table
// rather than re-pushing its stale one. The audit trace proves it — any
// distribute at the old generation, or any epoch regression on a replica,
// is a violation.
func TestFleetStaleLeaderDeposedNotRedistributing(t *testing.T) {
	link := &isolateLink{who: 0}
	tr := &audit.Trace{}
	nodes := startFleet(t, 3, testMachines(20, 40), []float64{3, 2}, func(c *Config) {
		c.HeartbeatEvery = 15 * time.Millisecond
		c.MaxMisses = 2
		c.SolveEvery = 50 * time.Millisecond
		c.Link = link
		c.Trace = tr
		c.Seed = 11
	})
	waitLeader(t, nodes, 0, 5*time.Second)
	testutil.WaitFor(t, 5*time.Second, "first reign's table everywhere", func() bool {
		for _, n := range nodes {
			if e, _ := n.TableEpoch(); e < 1 {
				return false
			}
		}
		return true
	})

	link.cut.Store(true)
	testutil.WaitFor(t, 5*time.Second, "majority re-elects under partition", func() bool {
		e1, _ := nodes[1].TableEpoch()
		return nodes[1].Leader() == 1 && e1 >= 2
	})
	staleEpoch, _ := nodes[0].TableEpoch()
	majorityEpoch, _ := nodes[1].TableEpoch()
	if staleEpoch >= majorityEpoch {
		t.Fatalf("partitioned ex-leader at epoch %d, majority at %d: nothing stale to regress to", staleEpoch, majorityEpoch)
	}

	link.cut.Store(false)
	testutil.WaitFor(t, 5*time.Second, "healed ex-leader catches up past the majority reign", func() bool {
		e0, _ := nodes[0].TableEpoch()
		return e0 >= majorityEpoch && nodes[0].Leader() == 0
	})
	// Every replica's installed epoch must be at (or beyond, if node 0
	// already reclaimed) the majority reign — never back on the stale one.
	for i, n := range nodes {
		if e, _ := n.TableEpoch(); e < majorityEpoch {
			t.Fatalf("node %d regressed to epoch %d below the majority reign %d", i, e, majorityEpoch)
		}
	}
	if vs := audit.Check(tr.Events()); len(vs) != 0 {
		t.Fatalf("audit violations (stale redistribute or regression): %+v", vs)
	}
}

// Crash-durability: a killed node restarted over the same durable dir must
// resume exactly from its persisted snapshot — same fence mark, same
// generation floor, last-known-good table served, stale pushes still 409d —
// before any new election, and a normally-timed restart must then move
// strictly beyond the persisted generation.
func TestFleetDurableRestartResume(t *testing.T) {
	dir := t.TempDir()
	machines := testMachines(20, 40)
	arrivals := []float64{3, 2}
	mk := func(hb, solve time.Duration) *Node {
		t.Helper()
		n, err := NewNode(Config{
			ID: 0, Machines: machines, Arrivals: arrivals,
			HeartbeatEvery: hb, SolveEvery: solve,
			EstimateEvery: 50 * time.Millisecond,
			DurableDir:    dir, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start([]string{n.ControlURL()}); err != nil {
			t.Fatal(err)
		}
		return n
	}

	n1 := mk(20*time.Millisecond, 60*time.Millisecond)
	testutil.WaitFor(t, 5*time.Second, "single-node fleet leads and installs", func() bool {
		e, _ := n1.TableEpoch()
		return n1.Leader() == 0 && e >= 1
	})
	epoch, version := n1.TableEpoch()
	gen := n1.Generation()
	if err := n1.Kill(); err != nil {
		t.Fatal(err)
	}

	// Restart with an hour-long control period: the run loop will not tick,
	// so everything observable is what the snapshot restored.
	n2 := mk(time.Hour, time.Hour)
	if e2, v2 := n2.TableEpoch(); e2 != epoch || v2 != version {
		t.Fatalf("restart resumed at (%d, %d), persisted (%d, %d)", e2, v2, epoch, version)
	}
	if g2 := n2.Generation(); g2 != gen {
		t.Fatalf("restart resumed at generation %d, persisted %d", g2, gen)
	}
	// The restored fence must still reject a stale reign's table.
	stale := Table{
		Epoch: epoch, Version: version, Leader: 0,
		Machines: func() []Machine {
			ms := append([]Machine(nil), machines...)
			for j := range ms {
				ms[j].Active = true
			}
			return ms
		}(),
		Arrivals:  arrivals,
		AdmitFrac: 1,
		Profile:   game.Profile{{0.5, 0.5}, {0.5, 0.5}},
	}
	data, err := EncodeTable(stale)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(n2.ControlURL()+"/fleet/table", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale table push after restart: status %d, want 409", resp.StatusCode)
	}
	// The data plane serves the resumed table, not an error.
	bresp, err := http.Get(n2.GatewayURL() + "/backends")
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("resumed data plane /backends: status %d", bresp.StatusCode)
	}
	if err := n2.Kill(); err != nil {
		t.Fatal(err)
	}

	// A normally-timed restart claims a fresh reign strictly beyond the
	// persisted generation — never reusing or regressing it.
	n3 := mk(15*time.Millisecond, 40*time.Millisecond)
	defer n3.Kill()
	testutil.WaitFor(t, 5*time.Second, "restarted node claims beyond the persisted generation", func() bool {
		e3, _ := n3.TableEpoch()
		return n3.Generation() > gen && e3 > epoch
	})
}
