package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
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
	// the supervision epochs it has led; SolveFailures counts led epochs
	// whose solve failed, so replicas kept their last table.
	Elections     int64 `json:"elections"`
	Solves        int64 `json:"solves"`
	SolveFailures int64 `json:"solve_failures"`
	// Machines is the provisioned universe with installed Active flags.
	Machines []Machine `json:"machines"`
	// PeersAlive is the liveness view indexed by node ID (self always true).
	PeersAlive []bool `json:"peers_alive"`
	// ArrivalsEstimate is this gateway's EWMA per-user admitted rate.
	ArrivalsEstimate []float64 `json:"arrivals_estimate"`
	GatewayURL       string    `json:"gateway_url"`
}

// reply is the handlers' one writer: an error goes out as its text, anything
// else as JSON.
func reply(w http.ResponseWriter, status int, v any) {
	if err, ok := v.(error); ok {
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// readBody is the handlers' one reader: it reads a request body of at most
// MaxMessage bytes and decodes it with dec. A body too long or malformed
// gets a 400, and ok is false.
func readBody[T any](w http.ResponseWriter, r *http.Request, dec func([]byte) (T, error)) (v T, ok bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxMessage))
	if err == nil {
		v, err = dec(data)
	}
	if err != nil {
		reply(w, http.StatusBadRequest, err)
		return v, false
	}
	return v, true
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
	reply(w, http.StatusOK, st)
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
	reply(w, http.StatusOK, hb)
}

func (n *Node) handleReport(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	rep := Report{
		ID:       n.cfg.ID,
		Arrivals: append([]float64(nil), n.estRates...),
		Weights:  n.gw.HealthWeights(),
	}
	n.mu.Unlock()
	reply(w, http.StatusOK, rep)
}

// handleTable applies a leader-pushed routing table. The gateway's fence
// decides: stale (epoch, version) pairs get 409 plus the current mark, so a
// deposed leader learns its reign is over; anything newer installs
// atomically and updates the replica's view of leadership.
func (n *Node) handleTable(w http.ResponseWriter, r *http.Request) {
	t, ok := readBody(w, r, DecodeTable)
	if !ok {
		return
	}
	if len(t.Machines) != len(n.cfg.Machines) {
		reply(w, http.StatusBadRequest, errors.New("fleet: table universe size mismatch"))
		return
	}
	active := make([]bool, len(t.Machines))
	for j, m := range t.Machines {
		if m.URL != n.cfg.Machines[j].URL || m.Rate != n.cfg.Machines[j].Rate {
			reply(w, http.StatusBadRequest, fmt.Errorf("fleet: machine %d mismatch with provisioned universe", j))
			return
		}
		active[j] = m.Active
	}
	err := n.installAndCommit(serve.Table{
		Epoch:       t.Epoch,
		Version:     t.Version,
		Profile:     t.Profile,
		Active:      active,
		AdmitFrac:   t.AdmitFrac,
		OfferedRate: t.OfferedRate,
	}, t.Leader)
	if errors.Is(err, serve.ErrStaleTable) {
		epoch, version := n.gw.TableEpoch()
		reply(w, http.StatusConflict, fenceMark{Epoch: epoch, Version: version})
		return
	}
	if err != nil {
		reply(w, http.StatusBadRequest, err)
		return
	}
	reply(w, http.StatusOK, map[string]string{"status": "installed"})
}

// handleClaim answers a leadership claim: grant if and only if the proposed
// generation is strictly beyond every generation this node has ever
// granted. The grant hits the durable snapshot before the reply leaves, so
// a crash cannot un-promise it — the persistence that makes "at most one
// leader per generation" hold across restarts.
func (n *Node) handleClaim(w http.ResponseWriter, r *http.Request) {
	c, ok := readBody(w, r, decode[Claim])
	if !ok {
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
	reply(w, http.StatusOK, ClaimReply{Granted: granted, Gen: cur})
}

// handleMachines serves elastic membership: join activates a provisioned
// standby, leave drains an active machine. Followers forward the request to
// the leader (one hop, marked ?forwarded so it goes no further); the leader
// applies the change to its desired set and re-solves immediately so the
// new equilibrium propagates in the same request.
func (n *Node) handleMachines(w http.ResponseWriter, r *http.Request) {
	op, ok := readBody(w, r, decode[MachineOp])
	if !ok {
		return
	}
	n.mu.Lock()
	leader := n.leader
	n.mu.Unlock()

	if leader < 0 {
		reply(w, http.StatusServiceUnavailable, errors.New("fleet: no leader elected"))
		return
	}
	if leader != n.cfg.ID {
		if r.URL.Query().Has("forwarded") {
			// A forwarded request landing on a non-leader means the
			// leadership view is churning; let the client retry.
			reply(w, http.StatusServiceUnavailable, errors.New("fleet: leadership changed, retry"))
			return
		}
		n.forwardMachines(w, leader, op)
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
		reply(w, http.StatusNotFound, fmt.Errorf("fleet: unknown machine %q: the universe is provisioned at startup; joins activate a known standby", op.URL))
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
			reply(w, http.StatusConflict, fmt.Errorf("fleet: cannot drain below %d active machine(s)", minActive))
			return
		}
		n.active[j] = false
	}
	n.mu.Unlock()

	// Propagate the new membership in this request: the response carries
	// the machine list the fleet is now converging to.
	n.solveAndDistribute()
	reply(w, http.StatusOK, n.Machines())
}

// forwardMachines relays a membership request to the leader and its answer
// back to the client.
func (n *Node) forwardMachines(w http.ResponseWriter, leader int, op MachineOp) {
	body, err := encode(op)
	if err != nil {
		reply(w, http.StatusBadRequest, err)
		return
	}
	status, out, err := n.call(leader, "/fleet/machines?forwarded=1", body, 2*time.Second+n.cfg.SolveEvery)
	switch {
	case err != nil:
		reply(w, http.StatusServiceUnavailable, fmt.Errorf("fleet: leader unreachable: %w", err))
	case status != http.StatusOK:
		reply(w, status, errors.New(strings.TrimSpace(string(out))))
	default:
		reply(w, status, json.RawMessage(out))
	}
}
