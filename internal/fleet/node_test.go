package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"nashlb/internal/fleet/audit"
	"nashlb/internal/serve"
	"nashlb/internal/testutil"
)

// testMachines is a small provisioned universe with placeholder URLs: the
// control-plane tests never forward traffic, so no live backends are needed.
func testMachines(rates ...float64) []Machine {
	ms := make([]Machine, len(rates))
	for j, mu := range rates {
		ms[j] = Machine{URL: fmt.Sprintf("http://127.0.0.1:1/backend-%d", j), Rate: mu, Active: true}
	}
	return ms
}

// startFleet builds and starts nNodes replicas over one machine universe,
// with fast control-plane timings for tests. Nodes are killed at cleanup.
func startFleet(t *testing.T, nNodes int, machines []Machine, arrivals []float64, mutate func(*Config)) []*Node {
	t.Helper()
	nodes := make([]*Node, nNodes)
	peers := make([]string, nNodes)
	for i := range nodes {
		cfg := Config{
			ID:             i,
			Machines:       machines,
			Arrivals:       arrivals,
			HeartbeatEvery: 20 * time.Millisecond,
			MaxMisses:      3,
			SolveEvery:     60 * time.Millisecond,
			EstimateEvery:  50 * time.Millisecond,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		peers[i] = n.ControlURL()
	}
	for _, n := range nodes {
		if err := n.Start(peers); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			_ = n.Kill()
		}
	})
	return nodes
}

func waitLeader(t *testing.T, nodes []*Node, want int, within time.Duration) {
	t.Helper()
	testutil.WaitFor(t, within, fmt.Sprintf("leader %d agreed fleet-wide", want), func() bool {
		for _, n := range nodes {
			if n.Leader() != want {
				return false
			}
		}
		return true
	})
}

func TestFleetElectsLowestAndDistributesTables(t *testing.T) {
	nodes := startFleet(t, 3, testMachines(20, 40), []float64{3, 2}, nil)
	waitLeader(t, nodes, 0, 5*time.Second)
	// The elected leader's epoch-1 table must reach every replica.
	testutil.WaitFor(t, 5*time.Second, "epoch >= 1 table installed everywhere", func() bool {
		for _, n := range nodes {
			if e, _ := n.TableEpoch(); e < 1 {
				return false
			}
		}
		return true
	})
	if got := nodes[0].Elections(); got != 1 {
		t.Fatalf("leader elections = %d, want 1", got)
	}
	for _, n := range nodes[1:] {
		if got := n.Elections(); got != 0 {
			t.Fatalf("follower recorded %d elections, want 0", got)
		}
	}
}

// TestFleetDistributesEveryLedSolve: with no live traffic the leader's
// re-solves keep landing on the same equilibrium, and each one still goes
// out: it bumps the version, and every follower installs every version of
// the reign.
func TestFleetDistributesEveryLedSolve(t *testing.T) {
	tr := &audit.Trace{}
	nodes := startFleet(t, 3, testMachines(20, 40), []float64{3, 2}, func(c *Config) { c.Trace = tr })
	waitLeader(t, nodes, 0, 5*time.Second)
	leader := nodes[0]

	testutil.WaitFor(t, 10*time.Second, "12 led solves", func() bool { return leader.Solves() >= 12 })
	// A solve counts before its version goes out, so the version read
	// after the count lags it by at most the one solve in flight.
	solves := leader.Solves()
	epoch, version := leader.TableEpoch()
	if int64(version) < solves-1 {
		t.Fatalf("version %d after %d led solves: a solve went out without a new version", version, solves)
	}
	testutil.WaitFor(t, 5*time.Second, "followers reached the leader's version", func() bool {
		for _, f := range nodes[1:] {
			if e, v := f.TableEpoch(); e != epoch || v < version {
				return false
			}
		}
		return true
	})
	got := make(map[int][]uint64)
	for _, ev := range tr.Events() {
		if ev.Kind == audit.Install && ev.Epoch == epoch && ev.Node != leader.cfg.ID {
			got[ev.Node] = append(got[ev.Node], ev.Version)
		}
	}
	for _, f := range nodes[1:] {
		vs := got[f.cfg.ID]
		if len(vs) < int(version) {
			t.Fatalf("follower %d installed versions %v of the reign, want 1..%d", f.cfg.ID, vs, version)
		}
		for k, v := range vs {
			if v != uint64(k+1) {
				t.Fatalf("follower %d installed versions %v of the reign, want 1, 2, 3, ...", f.cfg.ID, vs)
			}
		}
	}
}

// TestFleetCountsSolveFailures: every machine is unreachable, so the
// gateway's probes open every breaker and the leader's reduced game has no
// capacity left. Each led epoch's solve fails and replicas keep their last
// table; the failures must show on SolveFailures, /metrics and /fleet.
func TestFleetCountsSolveFailures(t *testing.T) {
	nodes := startFleet(t, 1, testMachines(20, 40), []float64{3, 2}, func(c *Config) {
		c.Gateway.ProbeEvery = 10 * time.Millisecond
		c.Gateway.Breaker = serve.BreakerConfig{Failures: 1, Cooldown: time.Hour}
	})
	waitLeader(t, nodes, 0, 5*time.Second)
	leader := nodes[0]
	testutil.WaitFor(t, 5*time.Second, "led epochs never failed to solve", func() bool {
		return leader.SolveFailures() >= 2
	})
	_, version := leader.TableEpoch()

	resp, err := http.Get(leader.ControlURL() + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var st FleetStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.SolveFailures < 2 {
		t.Fatalf("/fleet solve_failures = %d, want >= 2", st.SolveFailures)
	}
	resp, err = http.Get(leader.GatewayURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body.Bytes(), []byte("\nfleet_solve_failures ")) || bytes.Contains(body.Bytes(), []byte("\nfleet_solve_failures 0\n")) {
		t.Fatalf("/metrics lacks a non-zero fleet_solve_failures:\n%s", body.String())
	}
	// No table went out while the solves failed.
	if _, v := leader.TableEpoch(); v != version {
		t.Fatalf("table version moved from %d to %d with every solve failing", version, v)
	}
}

// TestFleetStatusEndpointJSON is the handler unit test for the /fleet debug
// endpoint: JSON content type, and a status payload consistent with the
// replica's accessor view.
func TestFleetStatusEndpointJSON(t *testing.T) {
	nodes := startFleet(t, 2, testMachines(20, 40), []float64{3, 2}, nil)
	waitLeader(t, nodes, 0, 5*time.Second)
	testutil.WaitFor(t, 5*time.Second, "table distributed", func() bool {
		e, _ := nodes[1].TableEpoch()
		return e >= 1
	})

	resp, err := http.Get(nodes[1].ControlURL() + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var st FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID != 1 || st.Leader != 0 || st.IsLeader {
		t.Fatalf("status identity wrong: %+v", st)
	}
	if st.Epoch < 1 || len(st.Machines) != 2 {
		t.Fatalf("status payload wrong: %+v", st)
	}
	// The heartbeat endpoint is JSON too.
	resp2, err := http.Get(nodes[1].ControlURL() + "/fleet/heartbeat")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("heartbeat Content-Type = %q, want application/json", ct)
	}
}

func TestFleetLeaderFailoverAndFencing(t *testing.T) {
	nodes := startFleet(t, 3, testMachines(20, 40), []float64{3, 2}, nil)
	waitLeader(t, nodes, 0, 5*time.Second)
	testutil.WaitFor(t, 5*time.Second, "epoch 1 everywhere", func() bool {
		for _, n := range nodes {
			if e, _ := n.TableEpoch(); e < 1 {
				return false
			}
		}
		return true
	})

	if err := nodes[0].Kill(); err != nil {
		t.Fatal(err)
	}
	waitLeader(t, nodes[1:], 1, 5*time.Second)
	testutil.WaitFor(t, 5*time.Second, "new reign's table installed on survivors", func() bool {
		for _, n := range nodes[1:] {
			if e, _ := n.TableEpoch(); e < 2 {
				return false
			}
		}
		return true
	})
	if got := nodes[1].Elections(); got != 1 {
		t.Fatalf("survivor elections = %d, want 1", got)
	}

	// Split-brain guard: a table from the deposed epoch must be rejected
	// with 409 and the current fence mark.
	machines := nodes[2].Machines()
	solved, err := nodes[2].Gateway().SolveTable([]float64{3, 2}, nil, []bool{true, true})
	if err != nil {
		t.Fatalf("SolveTable failed on the test system: %v", err)
	}
	stale := Table{
		Epoch: 1, Version: 999, Leader: 0,
		Machines: machines, Arrivals: []float64{3, 2},
		AdmitFrac: solved.AdmitFrac, Profile: solved.Profile,
	}
	data, err := EncodeTable(stale)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(nodes[2].ControlURL()+"/fleet/table", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale table answered %d, want 409", resp.StatusCode)
	}
	var cur struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
		t.Fatal(err)
	}
	if cur.Epoch < 2 {
		t.Fatalf("409 body reports epoch %d, want >= 2", cur.Epoch)
	}
}

func TestFleetMembershipJoinLeave(t *testing.T) {
	nodes := startFleet(t, 2, testMachines(20, 40, 40), []float64{3, 2}, nil)
	waitLeader(t, nodes, 0, 5*time.Second)
	testutil.WaitFor(t, 5*time.Second, "initial table everywhere", func() bool {
		for _, n := range nodes {
			if e, _ := n.TableEpoch(); e < 1 {
				return false
			}
		}
		return true
	})
	target := nodes[0].Machines()[2].URL

	postOp := func(to *Node, op MachineOp) *http.Response {
		t.Helper()
		data, err := EncodeMachineOp(op)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(to.ControlURL()+"/fleet/machines", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Leave via the FOLLOWER: the request must be forwarded to the leader,
	// applied, and the re-solved table must drain the machine fleet-wide.
	resp := postOp(nodes[1], MachineOp{Op: "leave", URL: target})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leave answered %d", resp.StatusCode)
	}
	resp.Body.Close()
	testutil.WaitFor(t, 5*time.Second, "machine drained on every replica", func() bool {
		for _, n := range nodes {
			if n.Machines()[2].Active {
				return false
			}
		}
		return true
	})

	// The gateway's /backends debug view reflects the drain.
	gresp, err := http.Get(nodes[1].GatewayURL() + "/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	if ct := gresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/backends Content-Type = %q", ct)
	}
	var bst serve.BackendsStatus
	if err := json.NewDecoder(gresp.Body).Decode(&bst); err != nil {
		t.Fatal(err)
	}
	if !bst.Backends[2].Drained {
		t.Fatal("/backends does not show the machine as drained")
	}
	if bst.TableEpoch < 1 {
		t.Fatalf("/backends table epoch = %d, want >= 1", bst.TableEpoch)
	}

	// Join re-activates it.
	resp = postOp(nodes[0], MachineOp{Op: "join", URL: target})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join answered %d", resp.StatusCode)
	}
	resp.Body.Close()
	testutil.WaitFor(t, 5*time.Second, "machine re-activated on every replica", func() bool {
		for _, n := range nodes {
			if !n.Machines()[2].Active {
				return false
			}
		}
		return true
	})

	// Unknown machines are refused with an explanation: the universe is
	// provisioned at startup.
	resp = postOp(nodes[0], MachineOp{Op: "join", URL: "http://127.0.0.1:1/not-provisioned"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown machine answered %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// The active set cannot drain below the floor.
	for _, m := range nodes[0].Machines()[:2] {
		resp = postOp(nodes[0], MachineOp{Op: "leave", URL: m.URL})
		resp.Body.Close()
	}
	resp = postOp(nodes[0], MachineOp{Op: "leave", URL: target})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("draining the last machine answered %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestKillAndStopFreeTheControlAddress: a node whose Start never ran, or
// failed before it served, still gives its control address back on Kill
// and on Stop, so a caller that gives up on a fleet part-way frees every
// port.
func TestKillAndStopFreeTheControlAddress(t *testing.T) {
	for _, end := range []struct {
		name string
		f    func(*Node) error
	}{{"Kill", (*Node).Kill}, {"Stop", (*Node).Stop}} {
		for _, start := range []bool{false, true} {
			n, err := NewNode(Config{ID: 0, Machines: testMachines(20, 40), Arrivals: []float64{3, 2}})
			if err != nil {
				t.Fatal(err)
			}
			addr := strings.TrimPrefix(n.ControlURL(), "http://")
			if start && n.Start(nil) == nil {
				t.Fatal("Start accepted a peer list without the node")
			}
			if err := end.f(n); err != nil {
				t.Errorf("%s (failed Start %v): %v", end.name, start, err)
			}
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatalf("%s (failed Start %v) left the control address bound: %v", end.name, start, err)
			}
			ln.Close()
		}
	}
}

func TestFleetGracefulStopHandsOffLeadership(t *testing.T) {
	nodes := startFleet(t, 2, testMachines(20, 40), []float64{3, 2}, nil)
	waitLeader(t, nodes, 0, 5*time.Second)

	done := make(chan error, 1)
	go func() { done <- nodes[0].Stop() }()
	waitLeader(t, nodes[1:], 1, 5*time.Second)
	if err := <-done; err != nil {
		t.Fatalf("graceful stop: %v", err)
	}
	testutil.WaitFor(t, 5*time.Second, "survivor's reign table installed", func() bool {
		e, _ := nodes[1].TableEpoch()
		return e >= 2
	})
}

func TestFleetAutoscaleDrainsIdleCapacity(t *testing.T) {
	nodes := startFleet(t, 1, testMachines(40, 40, 40), []float64{1, 1}, func(cfg *Config) {
		cfg.Autoscale = AutoscaleConfig{Enabled: true, Low: 0.3, High: 0.8, Sustain: 2, MinActive: 1}
	})
	// Offered load 2 against capacity 120: sustained low utilization must
	// drain standbys one per decision down to the floor.
	testutil.WaitFor(t, 10*time.Second, "autoscaler drained to MinActive", func() bool {
		active := 0
		for _, m := range nodes[0].Machines() {
			if m.Active {
				active++
			}
		}
		return active == 1
	})
	if e, _ := nodes[0].TableEpoch(); e < 1 {
		t.Fatalf("no table installed during scale-down (epoch %d)", e)
	}
}
