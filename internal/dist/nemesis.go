package dist

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nashlb/internal/rng"
)

// LinkPolicy decides whether a control-plane message from node `from` may
// reach node `to` right now. The fleet consults it before every outbound
// control call (heartbeat, report, table push, leadership claim), so a
// policy that answers false behaves exactly like a cut network link: the
// caller sees a transport failure and its liveness view decays.
type LinkPolicy interface {
	Allow(from, to int) bool
}

// NemesisEvent is one fault state of a partition nemesis, in force from the
// Set that installs it until the next Set replaces it.
//
// Partition lists symmetric netsplit groups: two nodes communicate only if
// they are in the same group. Nodes not named in any group implicitly share
// one residual group with each other. A nil Partition with no Cuts is a
// heal.
//
// Cuts are asymmetric one-way link failures ({from, to} blocks only that
// direction), layered on top of the partition — the classic "A can reach B
// but B cannot reach A" fault heartbeat protocols must survive.
//
// Loss drops each otherwise-allowed message independently with this
// probability, drawn from the nemesis's seeded stream (partial link loss).
type NemesisEvent struct {
	Partition [][]int
	Cuts      [][2]int
	Loss      float64
}

// Nemesis is a seeded partition fault injector: the control-plane sibling of
// the message-level Chaos transport and the work-hop ChaosProxy. It holds
// only the current fault and keeps no clock: whoever runs the scenario
// calls Set when a step is due, so link faults, kills and restarts replay on
// one timeline. Every random choice (partial loss) comes from a seeded
// stream, so a run is replayable from (steps, seed).
type Nemesis struct {
	n int

	allowed atomic.Int64
	blocked atomic.Int64
	lost    atomic.Int64

	mu  sync.Mutex
	cur *nemesisEvent
	r   *rng.Stream
}

// nemesisEvent is a compiled NemesisEvent: group membership and cuts are
// resolved to O(1) lookups so Allow stays cheap on the probe path.
type nemesisEvent struct {
	groupOf []int // 0 = unlisted (residual group), else group index + 1
	split   bool  // whether a partition is active at all
	cuts    map[[2]int]bool
	loss    float64
}

// NewNemesis returns a nemesis over a fleet of n nodes with every link up.
func NewNemesis(n int, seed uint64) (*Nemesis, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dist: nemesis over %d nodes", n)
	}
	return &Nemesis{n: n, cur: &nemesisEvent{}, r: rng.NewSource(seed).Stream("nemesis/loss")}, nil
}

// Set replaces the current fault with ev. Node IDs must be in [0, n) and
// appear in at most one group, cuts must join two distinct such nodes, and
// Loss must be in [0, 1); an invalid ev leaves the current fault in force.
func (nm *Nemesis) Set(ev NemesisEvent) error {
	if !(ev.Loss >= 0 && ev.Loss < 1) {
		return fmt.Errorf("dist: nemesis loss %g outside [0, 1)", ev.Loss)
	}
	ce := &nemesisEvent{groupOf: make([]int, nm.n), loss: ev.Loss}
	for gi, group := range ev.Partition {
		for _, id := range group {
			if id < 0 || id >= nm.n {
				return fmt.Errorf("dist: nemesis names node %d outside [0, %d)", id, nm.n)
			}
			if ce.groupOf[id] != 0 {
				return fmt.Errorf("dist: nemesis puts node %d in two groups", id)
			}
			ce.groupOf[id] = gi + 1
			ce.split = true
		}
	}
	if len(ev.Cuts) > 0 {
		ce.cuts = make(map[[2]int]bool, len(ev.Cuts))
	}
	for _, cut := range ev.Cuts {
		if cut[0] < 0 || cut[0] >= nm.n || cut[1] < 0 || cut[1] >= nm.n || cut[0] == cut[1] {
			return fmt.Errorf("dist: nemesis has invalid cut %v", cut)
		}
		ce.cuts[cut] = true
	}
	nm.mu.Lock()
	nm.cur = ce
	nm.mu.Unlock()
	return nil
}

// Allow implements LinkPolicy against the current fault. Self-links and IDs
// outside the nemesis's universe are always allowed.
func (nm *Nemesis) Allow(from, to int) bool {
	if from == to || from < 0 || from >= nm.n || to < 0 || to >= nm.n {
		return true
	}
	nm.mu.Lock()
	ev := nm.cur
	loseIt := ev.loss > 0 && nm.r.Float64() < ev.loss
	nm.mu.Unlock()

	if ev.split && ev.groupOf[from] != ev.groupOf[to] {
		nm.blocked.Add(1)
		return false
	}
	if ev.cuts[[2]int{from, to}] {
		nm.blocked.Add(1)
		return false
	}
	if loseIt {
		nm.lost.Add(1)
		return false
	}
	nm.allowed.Add(1)
	return true
}

// Counts reports delivered, partition/cut-blocked and loss-dropped
// decisions since construction.
func (nm *Nemesis) Counts() (allowed, blocked, lost int64) {
	return nm.allowed.Load(), nm.blocked.Load(), nm.lost.Load()
}
