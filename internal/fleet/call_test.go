package fleet

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"nashlb/internal/game"
)

// idleNode starts node id of a fleet whose control URLs are peers (the
// node's own entry is ignored) with a run loop that does not tick within a
// test, so the test makes every control call itself.
func idleNode(t *testing.T, id int, peers []string, mutate func(*Config)) *Node {
	t.Helper()
	cfg := Config{
		ID:             id,
		Machines:       testMachines(20, 40),
		Arrivals:       []float64{3, 2},
		HeartbeatEvery: time.Hour,
		SolveEvery:     time.Hour,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(peers); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Kill() })
	return n
}

// countingPeer stands in for fleet peer id: it answers every control
// message as a willing follower would and counts the requests per path.
type countingPeer struct {
	url  string
	mu   sync.Mutex
	hits map[string]int
}

func newCountingPeer(t *testing.T, id int) *countingPeer {
	p := &countingPeer{hits: make(map[string]int)}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		p.hits[r.URL.Path]++
		p.mu.Unlock()
		switch r.URL.Path {
		case "/fleet/heartbeat":
			reply(w, http.StatusOK, Heartbeat{ID: id, Leader: -1})
		case "/fleet/report":
			reply(w, http.StatusOK, Report{ID: id, Arrivals: []float64{1, 1}})
		case "/fleet/claim":
			if c, ok := readBody(w, r, decode[Claim]); ok {
				reply(w, http.StatusOK, ClaimReply{Granted: true, Gen: c.Gen})
			}
		case "/fleet/table":
			reply(w, http.StatusOK, map[string]string{"status": "installed"})
		case "/fleet/machines":
			reply(w, http.StatusOK, testMachines(20, 40))
		}
	}))
	t.Cleanup(srv.Close)
	p.url = srv.URL
	return p
}

func (p *countingPeer) counts() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int, len(p.hits))
	for k, v := range p.hits {
		out[k] = v
	}
	return out
}

// TestCallsObeyTheLinkPolicy makes each kind of outbound control call from
// node 0 to a stand-in peer 1: with the link policy refusing every link of
// node 0 none reaches the peer, and with the links allowed each does.
func TestCallsObeyTheLinkPolicy(t *testing.T) {
	kinds := []struct {
		path string
		send func(t *testing.T, n *Node)
	}{
		{"/fleet/heartbeat", func(t *testing.T, n *Node) { n.probePeers() }},
		{"/fleet/claim", func(t *testing.T, n *Node) { n.claimLeadership() }},
		{"/fleet/report", func(t *testing.T, n *Node) { n.gatherReports() }},
		{"/fleet/table", func(t *testing.T, n *Node) {
			n.mu.Lock()
			n.leader, n.wasLeader, n.leadEpoch = n.cfg.ID, true, 1
			n.mu.Unlock()
			n.solveAndDistribute()
		}},
		{"/fleet/machines", func(t *testing.T, n *Node) {
			// A follower forwards a membership change to its leader.
			n.mu.Lock()
			n.leader = 1
			n.mu.Unlock()
			op, err := EncodeMachineOp(MachineOp{Op: "leave", URL: n.cfg.Machines[0].URL})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(n.ControlURL()+"/fleet/machines", "application/json", bytes.NewReader(op))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}},
	}
	for _, cut := range []bool{true, false} {
		for _, k := range kinds {
			peer := newCountingPeer(t, 1)
			link := &isolateLink{who: 0}
			link.cut.Store(cut)
			n := idleNode(t, 0, []string{"", peer.url}, func(c *Config) { c.Link = link })
			k.send(t, n)
			hits := peer.counts()
			if cut && len(hits) != 0 {
				t.Errorf("%s with the link cut: the peer got %v", k.path, hits)
			}
			if !cut && hits[k.path] == 0 {
				t.Errorf("%s with the link up: the peer got %v", k.path, hits)
			}
		}
	}
}

// TestHandlersRefuseMalformedBodies posts, to each endpoint that reads a
// body, a truncated body and a valid one padded past MaxMessage. Each gets
// a 400 and changes nothing: no grant, no membership change, no install.
func TestHandlersRefuseMalformedBodies(t *testing.T) {
	n := idleNode(t, 0, []string{""}, nil)
	if !n.claimLeadership() {
		t.Fatal("a one-node fleet failed to claim leadership")
	}
	gen, machines := n.Generation(), n.Machines()
	epoch, version := n.TableEpoch()

	// Unspoiled, each body would change the node: a grant of a newer
	// generation, a drain applied by the leader, a newer table.
	claim, err := encode(Claim{ID: 1, Gen: gen + 1})
	if err != nil {
		t.Fatal(err)
	}
	op, err := EncodeMachineOp(MachineOp{Op: "leave", URL: machines[0].URL})
	if err != nil {
		t.Fatal(err)
	}
	table, err := EncodeTable(Table{
		Epoch: gen + 1, Version: 1, Machines: machines, Arrivals: []float64{3, 2},
		AdmitFrac: 1, Profile: game.Profile{{0.5, 0.5}, {0.5, 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post(n.ControlURL()+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	bodies := []struct {
		path  string
		valid []byte
	}{{"/fleet/claim", claim}, {"/fleet/machines", op}, {"/fleet/table", table}}
	for _, b := range bodies {
		// JSON ignores the whitespace padding; only the size cap refuses it.
		padded := append(bytes.Clone(b.valid), bytes.Repeat([]byte(" "), MaxMessage+1-len(b.valid))...)
		for name, body := range map[string][]byte{"truncated": b.valid[:len(b.valid)-1], "oversized": padded} {
			if got := post(b.path, body); got != http.StatusBadRequest {
				t.Errorf("%s body on %s answered %d, want 400", name, b.path, got)
			}
		}
	}
	if got := n.Generation(); got != gen {
		t.Errorf("generation moved from %d to %d", gen, got)
	}
	if got := n.Machines(); !reflect.DeepEqual(got, machines) {
		t.Errorf("machines changed from %v to %v", machines, got)
	}
	if e, v := n.TableEpoch(); e != epoch || v != version {
		t.Errorf("table moved from (%d, %d) to (%d, %d)", epoch, version, e, v)
	}
	// The same bodies unspoiled are accepted.
	for _, b := range bodies {
		if got := post(b.path, b.valid); got != http.StatusOK {
			t.Errorf("valid body on %s answered %d, want 200", b.path, got)
		}
	}
}
