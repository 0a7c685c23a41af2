// Package fleet replicates the nashgate control plane: N gateway nodes serve
// traffic concurrently, elect a solver leader (lowest alive ID, the ring
// election style of internal/dist), aggregate their per-gateway arrival-rate
// estimates into one game, and distribute the solved routing table to every
// replica stamped with a generation-fenced (epoch, version) so a deposed
// leader's straggler tables are rejected (dist.Fence — split-brain
// prevention). Followers keep serving their last valid table during leader
// failover, so the data plane never stalls on the control plane.
//
// Membership is elastic over a provisioned machine universe: every node
// knows the full set of machines it may ever route to (serve.Gateway sizes
// its samplers, breakers and metrics at construction), and the control plane
// activates or drains machines within that universe at runtime — scale-down
// on sustained low utilization, re-solve on join — generalizing the
// survivor re-equilibration of the health layer into an autoscaler hook.
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"nashlb/internal/game"
)

// MaxMessage caps any fleet control message, mirroring the dist transport's
// frame cap: a malformed or hostile payload is rejected before decoding.
const MaxMessage = 1 << 20

// Machine is one provisioned backend: its URL, its service rate mu_j, and
// whether the control plane currently has it in rotation.
type Machine struct {
	URL    string  `json:"url"`
	Rate   float64 `json:"rate"`
	Active bool    `json:"active"`
}

// Table is the leader's solved routing state, pushed to every replica. The
// (Epoch, Version) pair fences installs: an epoch names one leader reign, a
// version orders its tables, and receivers reject anything not strictly
// newer than what they already applied.
type Table struct {
	Epoch   uint64 `json:"epoch"`
	Version uint64 `json:"version"`
	// Leader is the solving node's fleet ID.
	Leader int `json:"leader"`
	// Machines is the full provisioned universe with the Active flags this
	// table was solved for; inactive machines' profile columns are zero.
	Machines []Machine `json:"machines"`
	// Arrivals is the aggregate per-user arrival-rate vector the game was
	// solved with (the sum of the replicas' estimated shares).
	Arrivals []float64 `json:"arrivals"`
	// AdmitFrac in (0, 1) tells the recipient to shed down to this fraction
	// of its offered load (infeasible aggregate); 1 clears shedding.
	AdmitFrac float64 `json:"admit_frac"`
	// OfferedRate is the recipient's own estimated offered load in req/s,
	// sizing its degraded-mode bucket (leader fills it per recipient).
	OfferedRate float64 `json:"offered_rate"`
	// Profile is the solved equilibrium: one row per user, one column per
	// machine in Machines. It travels in row form (profileRows).
	Profile game.Profile `json:"-"`
}

// tableWire is a Table as EncodeTable writes it: the profile in row form.
type tableWire struct {
	Table
	profileRows
}

// profileRows is the serialized form of a routing profile. Rows holds each
// distinct strategy row once, compared bit for bit and numbered by the
// first user that plays it; RowOf holds one row index per user. At the
// equilibrium, users with equal arrival rates play equal rows, so a table
// solved on per-class rates is a few rows plus one small integer per user;
// per-user live estimates differ, and then every row is distinct and the
// form costs one index per user more than a dense profile.
type profileRows struct {
	Rows  []game.Strategy `json:"rows,omitempty"`
	RowOf []int32         `json:"row_of,omitempty"`
}

// rowsOf puts p in row form, checking each distinct row once as a strategy
// over n machines.
func rowsOf(p game.Profile, n int) (profileRows, error) {
	rows, rowOf := game.DistinctRows(p)
	for r, st := range rows {
		if err := game.CheckStrategy(st, n); err != nil {
			return profileRows{}, fmt.Errorf("profile row %d: %w", r, err)
		}
	}
	return profileRows{Rows: rows, RowOf: rowOf}, nil
}

// profile checks the row form against users and n machines — one index per
// user, each naming a row, rows numbered by first use, each row a strategy
// — and rebuilds the dense profile in one backing array, every user in its
// own n-wide region so no row aliases another.
func (w profileRows) profile(users, n int) (game.Profile, error) {
	if len(w.RowOf) != users {
		return nil, fmt.Errorf("row_of has %d entries for %d users", len(w.RowOf), users)
	}
	// A dense profile could not carry more cells than a message has bytes;
	// the row form could, so this cap keeps a small message from demanding
	// gigabytes here.
	if int64(users)*int64(n) > MaxMessage {
		return nil, fmt.Errorf("profile of %d users x %d machines exceeds %d cells", users, n, MaxMessage)
	}
	used := 0
	for i, r := range w.RowOf {
		if r < 0 || int(r) >= len(w.Rows) {
			return nil, fmt.Errorf("row_of[%d]=%d outside %d rows", i, r, len(w.Rows))
		}
		if int(r) > used {
			return nil, fmt.Errorf("row_of[%d]=%d skips row %d", i, r, used)
		}
		if int(r) == used {
			used++
		}
	}
	if used != len(w.Rows) {
		return nil, fmt.Errorf("rows has %d entries, row_of uses %d", len(w.Rows), used)
	}
	for r, st := range w.Rows {
		if err := game.CheckStrategy(st, n); err != nil {
			return nil, fmt.Errorf("profile row %d: %w", r, err)
		}
	}
	cells := make([]float64, users*n)
	p := make(game.Profile, users)
	for i, r := range w.RowOf {
		p[i] = cells[i*n : (i+1)*n : (i+1)*n]
		copy(p[i], w.Rows[r])
	}
	return p, nil
}

// Heartbeat is a node's liveness answer: who it is, the newest table it has
// applied, who it believes leads, and whether it is draining out.
type Heartbeat struct {
	ID      int    `json:"id"`
	Epoch   uint64 `json:"epoch"`
	Version uint64 `json:"version"`
	// Gen is the highest leadership generation this node has seen or
	// granted: heartbeats gossip it so a leader partitioned away learns of
	// its deposition the moment it can reach anyone again.
	Gen uint64 `json:"gen"`
	// Leader is the believed leader's ID (-1 while unknown).
	Leader int `json:"leader"`
	// Draining nodes still answer in-flight work but must not be elected
	// and are about to leave the fleet.
	Draining bool `json:"draining"`
}

// Report is a replica's contribution to the leader's solve: its estimated
// per-user arrival rates (its traffic share of the game) and its health
// layer's per-machine capacity weights.
type Report struct {
	ID int `json:"id"`
	// Arrivals is the EWMA-estimated admitted rate per user at this gateway.
	Arrivals []float64 `json:"arrivals"`
	// Weights is the effective capacity weight per machine in [0, 1] (nil
	// when the health layer is disabled).
	Weights []float64 `json:"weights,omitempty"`
}

// MachineOp is a membership request against the control plane: activate
// ("join") or drain ("leave") one provisioned machine.
type MachineOp struct {
	Op  string `json:"op"` // "join" or "leave"
	URL string `json:"url"`
}

// Claim asks a peer for a leadership grant: the candidate proposes to lead
// generation Gen. A peer grants a given generation to at most one candidate
// ever (the grant is persisted before the reply leaves the node), so any
// two successful claims — each backed by a strict majority — would have to
// share a granter, which is impossible: at most one leader per generation.
type Claim struct {
	ID  int    `json:"id"`
	Gen uint64 `json:"gen"`
}

// ClaimReply answers a Claim: Granted says this peer promised Gen to the
// candidate; Gen echoes the peer's highest granted generation either way,
// letting a refused candidate fast-forward its next proposal.
type ClaimReply struct {
	Granted bool   `json:"granted"`
	Gen     uint64 `json:"gen"`
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func decodeStrict(data []byte, v any) error {
	if len(data) > MaxMessage {
		return fmt.Errorf("fleet: message of %d bytes exceeds cap %d", len(data), MaxMessage)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("fleet: decode: %w", err)
	}
	// Trailing garbage after the value is malformed, not ignorable.
	if dec.More() {
		return fmt.Errorf("fleet: trailing data after message")
	}
	return nil
}

func validMachines(ms []Machine) error {
	if len(ms) == 0 {
		return fmt.Errorf("fleet: empty machine list")
	}
	seen := make(map[string]bool, len(ms))
	for j, m := range ms {
		if m.URL == "" {
			return fmt.Errorf("fleet: machine %d has no URL", j)
		}
		if seen[m.URL] {
			return fmt.Errorf("fleet: duplicate machine URL %q", m.URL)
		}
		seen[m.URL] = true
		if !(m.Rate > 0) || !finite(m.Rate) {
			return fmt.Errorf("fleet: machine %d invalid rate %g", j, m.Rate)
		}
	}
	return nil
}

// EncodeTable serializes a table for the control plane, its profile in row
// form.
func EncodeTable(t Table) ([]byte, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	if len(t.Profile) != len(t.Arrivals) {
		return nil, fmt.Errorf("fleet: profile has %d rows for %d users", len(t.Profile), len(t.Arrivals))
	}
	rows, err := rowsOf(t.Profile, len(t.Machines))
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return json.Marshal(tableWire{Table: t, profileRows: rows})
}

// DecodeTable parses and validates a table: machine list well-formed,
// arrivals positive and finite, the row form well-formed with every
// distinct row a feasible strategy over the machines, AdmitFrac in [0, 1].
// Malformed input is rejected, never installed.
func DecodeTable(data []byte) (Table, error) {
	var w tableWire
	if err := decodeStrict(data, &w); err != nil {
		return Table{}, err
	}
	t := w.Table
	if err := t.validate(); err != nil {
		return Table{}, err
	}
	p, err := w.profile(len(t.Arrivals), len(t.Machines))
	if err != nil {
		return Table{}, fmt.Errorf("fleet: %w", err)
	}
	t.Profile = p
	return t, nil
}

// validate checks everything but the profile, whose checks depend on its
// form.
func (t Table) validate() error {
	if t.Leader < 0 {
		return fmt.Errorf("fleet: negative leader id %d", t.Leader)
	}
	if err := validMachines(t.Machines); err != nil {
		return err
	}
	if len(t.Arrivals) == 0 {
		return fmt.Errorf("fleet: table has no arrivals")
	}
	for i, phi := range t.Arrivals {
		if !(phi > 0) || !finite(phi) {
			return fmt.Errorf("fleet: invalid arrival phi[%d]=%g", i, phi)
		}
	}
	if !(t.AdmitFrac >= 0 && t.AdmitFrac <= 1) {
		return fmt.Errorf("fleet: admit fraction %g outside [0, 1]", t.AdmitFrac)
	}
	if !(t.OfferedRate >= 0) || !finite(t.OfferedRate) {
		return fmt.Errorf("fleet: invalid offered rate %g", t.OfferedRate)
	}
	return nil
}

// EncodeHeartbeat serializes a heartbeat.
func EncodeHeartbeat(h Heartbeat) ([]byte, error) {
	if err := h.validate(); err != nil {
		return nil, err
	}
	return json.Marshal(h)
}

// DecodeHeartbeat parses and validates a heartbeat.
func DecodeHeartbeat(data []byte) (Heartbeat, error) {
	var h Heartbeat
	if err := decodeStrict(data, &h); err != nil {
		return Heartbeat{}, err
	}
	if err := h.validate(); err != nil {
		return Heartbeat{}, err
	}
	return h, nil
}

func (h Heartbeat) validate() error {
	if h.ID < 0 {
		return fmt.Errorf("fleet: negative node id %d", h.ID)
	}
	if h.Leader < -1 {
		return fmt.Errorf("fleet: invalid leader id %d", h.Leader)
	}
	return nil
}

// EncodeReport serializes a report.
func EncodeReport(r Report) ([]byte, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// DecodeReport parses and validates a report.
func DecodeReport(data []byte) (Report, error) {
	var r Report
	if err := decodeStrict(data, &r); err != nil {
		return Report{}, err
	}
	if err := r.validate(); err != nil {
		return Report{}, err
	}
	return r, nil
}

func (r Report) validate() error {
	if r.ID < 0 {
		return fmt.Errorf("fleet: negative node id %d", r.ID)
	}
	for i, phi := range r.Arrivals {
		if !(phi >= 0) || !finite(phi) {
			return fmt.Errorf("fleet: invalid estimated arrival phi[%d]=%g", i, phi)
		}
	}
	for j, w := range r.Weights {
		if !(w >= 0 && w <= 1) {
			return fmt.Errorf("fleet: weight[%d]=%g outside [0, 1]", j, w)
		}
	}
	return nil
}

// EncodeMachineOp serializes a membership operation.
func EncodeMachineOp(op MachineOp) ([]byte, error) {
	if err := op.validate(); err != nil {
		return nil, err
	}
	return json.Marshal(op)
}

// DecodeMachineOp parses and validates a membership operation.
func DecodeMachineOp(data []byte) (MachineOp, error) {
	var op MachineOp
	if err := decodeStrict(data, &op); err != nil {
		return MachineOp{}, err
	}
	if err := op.validate(); err != nil {
		return MachineOp{}, err
	}
	return op, nil
}

func (op MachineOp) validate() error {
	if op.Op != "join" && op.Op != "leave" {
		return fmt.Errorf("fleet: unknown machine op %q", op.Op)
	}
	if op.URL == "" {
		return fmt.Errorf("fleet: machine op without URL")
	}
	return nil
}

// EncodeClaim serializes a leadership claim.
func EncodeClaim(c Claim) ([]byte, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	return json.Marshal(c)
}

// DecodeClaim parses and validates a leadership claim.
func DecodeClaim(data []byte) (Claim, error) {
	var c Claim
	if err := decodeStrict(data, &c); err != nil {
		return Claim{}, err
	}
	if err := c.validate(); err != nil {
		return Claim{}, err
	}
	return c, nil
}

func (c Claim) validate() error {
	if c.ID < 0 {
		return fmt.Errorf("fleet: negative node id %d", c.ID)
	}
	if c.Gen == 0 {
		return fmt.Errorf("fleet: claim for generation 0")
	}
	return nil
}

// EncodeClaimReply serializes a claim answer.
func EncodeClaimReply(r ClaimReply) ([]byte, error) { return json.Marshal(r) }

// DecodeClaimReply parses a claim answer.
func DecodeClaimReply(data []byte) (ClaimReply, error) {
	var r ClaimReply
	if err := decodeStrict(data, &r); err != nil {
		return ClaimReply{}, err
	}
	return r, nil
}
