package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"nashlb/internal/serve"
)

// FleetStatus is the wire form of the GET /fleet debug endpoint: this
// replica's identity and view of the control plane.
type FleetStatus struct {
	ID       int  `json:"id"`
	Leader   int  `json:"leader"`
	IsLeader bool `json:"is_leader"`
	// Epoch and Version identify the installed routing table's fence mark.
	Epoch    uint64 `json:"epoch"`
	Version  uint64 `json:"version"`
	Draining bool   `json:"draining"`
	// Gen is the highest leadership generation this node has seen or
	// granted. QuorumOK reports whether it currently heartbeats a strict
	// majority of the provisioned universe; false means degraded mode —
	// serving the last-installed table, never solving or distributing.
	// Durable says a crash-safe snapshot backs this node's control state.
	Gen      uint64 `json:"gen"`
	QuorumOK bool   `json:"quorum_ok"`
	Durable  bool   `json:"durable"`
	// Elections counts this node's leadership assumptions; Solves counts
	// the supervision epochs it has led; TableSkips counts led epochs whose
	// re-solve matched the distributed table so no push went out;
	// SolveFailures counts led epochs whose solve failed, so replicas kept
	// their last table.
	Elections     int64 `json:"elections"`
	Solves        int64 `json:"solves"`
	TableSkips    int64 `json:"table_skips"`
	SolveFailures int64 `json:"solve_failures"`
	// Machines is the provisioned universe with installed Active flags.
	Machines []Machine `json:"machines"`
	// PeersAlive is the liveness view indexed by node ID (self always true).
	PeersAlive []bool `json:"peers_alive"`
	// ArrivalsEstimate is this gateway's EWMA per-user admitted rate.
	ArrivalsEstimate []float64 `json:"arrivals_estimate"`
	GatewayURL       string    `json:"gateway_url"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (n *Node) handleFleet(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	gen := n.maxEpoch
	if n.grantGen > gen {
		gen = n.grantGen
	}
	st := FleetStatus{
		ID:               n.cfg.ID,
		Leader:           n.leader,
		IsLeader:         n.leader == n.cfg.ID && !n.draining,
		Epoch:            n.epoch,
		Version:          n.version,
		Draining:         n.draining,
		Gen:              gen,
		QuorumOK:         n.quorumOK,
		Durable:          n.wal != nil,
		Elections:        n.elections.Load(),
		Solves:           n.solves.Load(),
		TableSkips:       n.distSkips.Load(),
		SolveFailures:    n.solveFail.Load(),
		PeersAlive:       append([]bool(nil), n.alive...),
		ArrivalsEstimate: append([]float64(nil), n.estRates...),
		GatewayURL:       n.gw.URL(),
	}
	st.Machines = make([]Machine, len(n.cfg.Machines))
	for j, m := range n.cfg.Machines {
		m.Active = n.active[j]
		st.Machines[j] = m
	}
	if st.PeersAlive != nil && n.cfg.ID < len(st.PeersAlive) {
		st.PeersAlive[n.cfg.ID] = !n.draining
	}
	n.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (n *Node) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	gen := n.maxEpoch
	if n.grantGen > gen {
		gen = n.grantGen
	}
	hb := Heartbeat{
		ID:       n.cfg.ID,
		Epoch:    n.epoch,
		Version:  n.version,
		Gen:      gen,
		Leader:   n.leader,
		Draining: n.draining,
	}
	n.mu.Unlock()
	data, err := EncodeHeartbeat(hb)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (n *Node) handleReport(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	rep := Report{
		ID:       n.cfg.ID,
		Arrivals: append([]float64(nil), n.estRates...),
		Weights:  n.gw.HealthWeights(),
	}
	n.mu.Unlock()
	data, err := EncodeReport(rep)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// handleTable applies a leader-pushed routing table. The gateway's fence
// decides: stale (epoch, version) pairs get 409 plus the current mark, so a
// deposed leader learns its reign is over; anything newer installs
// atomically and updates the replica's view of leadership.
func (n *Node) handleTable(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxMessage))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	t, err := DecodeTable(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(t.Machines) != len(n.cfg.Machines) {
		http.Error(w, "fleet: table universe size mismatch", http.StatusBadRequest)
		return
	}
	active := make([]bool, len(t.Machines))
	for j, m := range t.Machines {
		if m.URL != n.cfg.Machines[j].URL || m.Rate != n.cfg.Machines[j].Rate {
			http.Error(w, fmt.Sprintf("fleet: machine %d mismatch with provisioned universe", j), http.StatusBadRequest)
			return
		}
		active[j] = m.Active
	}
	err = n.installAndCommit(serve.Table{
		Epoch:       t.Epoch,
		Version:     t.Version,
		Profile:     t.Profile,
		Active:      active,
		AdmitFrac:   t.AdmitFrac,
		OfferedRate: t.OfferedRate,
	}, t.Leader)
	if errors.Is(err, serve.ErrStaleTable) {
		epoch, version := n.gw.TableEpoch()
		writeJSON(w, http.StatusConflict, map[string]uint64{"epoch": epoch, "version": version})
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "installed"})
}

// handleClaim answers a leadership claim: grant if and only if the proposed
// generation is strictly beyond every generation this node has ever
// granted. The grant hits the durable snapshot before the reply leaves, so
// a crash cannot un-promise it — the persistence that makes "at most one
// leader per generation" hold across restarts.
func (n *Node) handleClaim(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxMessage))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c, err := DecodeClaim(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n.mu.Lock()
	granted := c.Gen > n.grantGen
	if granted {
		n.grantGen = c.Gen
		if c.Gen > n.maxEpoch {
			n.maxEpoch = c.Gen
		}
	}
	cur := n.grantGen
	n.mu.Unlock()
	if granted {
		n.persist()
	}
	writeJSON(w, http.StatusOK, ClaimReply{Granted: granted, Gen: cur})
}

// handleMachines serves elastic membership: join activates a provisioned
// standby, leave drains an active machine. Followers proxy the request to
// the leader (one hop); the leader applies the change to its desired set
// and re-solves immediately so the new equilibrium propagates in the same
// request.
func (n *Node) handleMachines(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxMessage))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	op, err := DecodeMachineOp(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	n.mu.Lock()
	leader := n.leader
	var leaderURL string
	if leader >= 0 && leader < len(n.peers) {
		leaderURL = n.peers[leader]
	}
	n.mu.Unlock()

	if leader < 0 {
		http.Error(w, "fleet: no leader elected", http.StatusServiceUnavailable)
		return
	}
	if leader != n.cfg.ID {
		if r.Header.Get("X-Fleet-Forwarded") != "" {
			// A forwarded request landing on a non-leader means the
			// leadership view is churning; let the client retry.
			http.Error(w, "fleet: leadership changed, retry", http.StatusServiceUnavailable)
			return
		}
		if !n.linkUp(leader) {
			http.Error(w, "fleet: leader unreachable", http.StatusServiceUnavailable)
			return
		}
		n.forwardMachines(w, leaderURL, body)
		return
	}

	j := -1
	for k, m := range n.cfg.Machines {
		if m.URL == op.URL {
			j = k
			break
		}
	}
	if j < 0 {
		http.Error(w, fmt.Sprintf("fleet: unknown machine %q: the universe is provisioned at startup; joins activate a known standby", op.URL), http.StatusNotFound)
		return
	}

	n.mu.Lock()
	switch op.Op {
	case "join":
		n.active[j] = true
	case "leave":
		nActive := 0
		for _, a := range n.active {
			if a {
				nActive++
			}
		}
		minActive := n.cfg.Autoscale.withDefaults().MinActive
		if n.active[j] && nActive <= minActive {
			n.mu.Unlock()
			http.Error(w, fmt.Sprintf("fleet: cannot drain below %d active machine(s)", minActive), http.StatusConflict)
			return
		}
		n.active[j] = false
	}
	n.mu.Unlock()

	// Propagate the new membership in this request: the response carries
	// the machine list the fleet is now converging to.
	n.solveAndDistribute()
	writeJSON(w, http.StatusOK, n.Machines())
}

// forwardMachines proxies a membership request to the leader (single hop).
func (n *Node) forwardMachines(w http.ResponseWriter, leaderURL string, body []byte) {
	if leaderURL == "" {
		http.Error(w, "fleet: leader unreachable", http.StatusServiceUnavailable)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second+n.cfg.SolveEvery)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, leaderURL+"/fleet/machines", bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Fleet-Forwarded", "1")
	resp, err := n.client.Do(req)
	if err != nil {
		http.Error(w, fmt.Sprintf("fleet: leader unreachable: %v", err), http.StatusServiceUnavailable)
		return
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(io.LimitReader(resp.Body, MaxMessage+1))
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(out)
}
