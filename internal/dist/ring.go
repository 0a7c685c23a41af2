package dist

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"nashlb/internal/core"
	"nashlb/internal/game"
)

// StateStore is the cluster state a user consults before running OPTIMAL:
// in a deployed system this is the run-queue inspection of the paper
// (Remark 2); here it is an interface so the in-memory exact view and
// estimated views are interchangeable.
type StateStore interface {
	// Available returns the available processing rates as seen by user i
	// (mu_j minus every other user's flow into j).
	Available(user int) ([]float64, error)
	// Publish atomically installs user i's new strategy.
	Publish(user int, s game.Strategy) error
	// Snapshot returns a copy of the full current profile.
	Snapshot() game.Profile
}

// MemoryStore is the exact shared-state implementation of StateStore,
// safe for concurrent use.
type MemoryStore struct {
	mu      sync.RWMutex
	sys     *game.System
	profile game.Profile
}

// NewMemoryStore returns a store over sys starting from the given profile
// (which is cloned). A nil profile starts from all-zero strategies (NASH_0).
func NewMemoryStore(sys *game.System, profile game.Profile) *MemoryStore {
	if profile == nil {
		profile = game.NewProfile(sys.Users(), sys.Computers())
	}
	return &MemoryStore{sys: sys, profile: profile.Clone()}
}

// Available implements StateStore.
func (s *MemoryStore) Available(user int) ([]float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if user < 0 || user >= s.sys.Users() {
		return nil, fmt.Errorf("dist: unknown user %d", user)
	}
	return s.sys.AvailableRates(s.profile, user), nil
}

// Publish implements StateStore.
func (s *MemoryStore) Publish(user int, st game.Strategy) error {
	if err := game.CheckStrategy(st, s.sys.Computers()); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if user < 0 || user >= s.sys.Users() {
		return fmt.Errorf("dist: unknown user %d", user)
	}
	s.profile[user] = st.Clone()
	return nil
}

// Snapshot implements StateStore.
func (s *MemoryStore) Snapshot() game.Profile {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.profile.Clone()
}

// Options configures a distributed solve.
type Options struct {
	// Epsilon is the norm acceptance tolerance (core.DefaultEpsilon if 0).
	Epsilon float64
	// MaxRounds bounds the circulations (core.DefaultMaxRounds if 0).
	MaxRounds int
	// Init selects the starting profile when Solve builds the store itself.
	Init core.Init
	// RecvTimeout, when positive, arms a liveness guard on every node: if
	// the token does not arrive within this duration the node fails with
	// ErrRecvTimeout instead of blocking forever on a dead predecessor.
	RecvTimeout time.Duration
}

// Result is the outcome of a distributed solve.
type Result struct {
	// Profile is the final strategy profile.
	Profile game.Profile
	// Rounds is the number of completed token circulations.
	Rounds int
	// Converged reports whether the norm criterion was met.
	Converged bool
	// Norm is the accumulated norm carried by the token circulation that
	// triggered termination.
	Norm float64
	// UserTimes and OverallTime evaluate Profile on the system.
	UserTimes   []float64
	OverallTime float64
}

// node is the per-user protocol state.
type node struct {
	id      int
	size    int
	arrival float64
	store   StateStore
	tr      Transport
	eps     float64
	maxR    int
	prevD   float64
	seq     uint64
	// epoch is this node's restart incarnation, stamped on every message so
	// receivers reset their duplicate-suppression mark after a restart.
	epoch uint64
	// gen is the highest token generation seen (leader: the generation it
	// stamps). The leader bumps it when recovering a lost token; everyone
	// discards messages from superseded generations.
	gen uint64
	// recover, when set on the leader, is consulted after a receive timeout:
	// returning true authorizes re-injecting the token under a bumped
	// generation (the supervisor uses this hook to also run its liveness
	// accounting). Nil keeps the node fail-fast.
	recover func(gen uint64) bool
	// finalNorm records (on the leader) the norm of the circulation that
	// triggered termination.
	finalNorm float64
}

// update recomputes this user's best response against the store and returns
// |D_new - D_prev|.
func (n *node) update() (float64, error) {
	avail, err := n.store.Available(n.id)
	if err != nil {
		return 0, err
	}
	next, err := core.Optimal(avail, n.arrival)
	if err != nil {
		return 0, fmt.Errorf("user %d best response: %w", n.id, err)
	}
	if err := n.store.Publish(n.id, next); err != nil {
		return 0, err
	}
	d := core.ResponseTime(avail, n.arrival, next)
	delta := math.Abs(d - n.prevD)
	n.prevD = d
	return delta, nil
}

// send stamps the sender identity, epoch and a fresh sequence number, then
// transmits, retrying transient link faults; retransmissions reuse the
// sequence number so the receiver's duplicate suppression makes them
// idempotent.
func (n *node) send(m Message) error {
	n.seq++
	m.Seq = n.seq
	m.From = n.id
	m.Epoch = n.epoch
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		if err = n.tr.Send(m); err == nil {
			return nil
		}
	}
	return err
}

// runLeader executes node 0's role: it starts every round, accumulates its
// own delta, and decides termination when the token returns. When a recover
// hook is installed, a receive timeout triggers token recovery instead of
// failure: the generation is bumped and the in-flight message (pending Done,
// or the current round's token) is re-injected; stale-generation and
// duplicate tokens are discarded, so a late original can never corrupt the
// norm accumulation.
func (n *node) runLeader() (rounds int, converged bool, err error) {
	if n.gen == 0 {
		n.gen = 1
	}
	round := 1
	delta, err := n.update()
	if err != nil {
		return 0, false, err
	}
	if err := n.send(Message{Kind: Token, Round: round, Norm: delta, Gen: n.gen}); err != nil {
		return 0, false, err
	}
	// pendingDone holds the termination message while we wait for it to
	// circulate back, so a recovery re-injects it instead of a token.
	var pendingDone *Message
	for {
		msg, err := n.tr.Recv()
		if err != nil {
			if n.recover != nil && errors.Is(err, ErrRecvTimeout) && n.recover(n.gen) {
				n.gen++
				if pendingDone != nil {
					d := *pendingDone
					d.Gen = n.gen
					if err := n.send(d); err != nil {
						return round, false, err
					}
					continue
				}
				// The token died mid-circulation: recompute our best
				// response against the published state and restart the
				// round under the new generation.
				delta, uerr := n.update()
				if uerr != nil {
					return round, false, uerr
				}
				if serr := n.send(Message{Kind: Token, Round: round, Norm: delta, Gen: n.gen}); serr != nil {
					return round, false, serr
				}
				continue
			}
			return round, false, err
		}
		if msg.Gen < n.gen {
			continue // token from a superseded generation
		}
		if msg.Kind == Done {
			// Our own Done came back; the ring is drained.
			return round, !msg.Aborted, nil
		}
		if pendingDone != nil || msg.Round != round {
			continue // duplicate of an already-processed token
		}
		if msg.Norm <= n.eps {
			n.finalNorm = msg.Norm
			done := Message{Kind: Done, Round: msg.Round, Gen: n.gen}
			if err := n.send(done); err != nil {
				return round, false, err
			}
			if n.size == 1 {
				return round, true, nil
			}
			pendingDone = &done
			continue // wait for Done to come back
		}
		if msg.Round >= n.maxR {
			n.finalNorm = msg.Norm
			done := Message{Kind: Done, Round: msg.Round, Aborted: true, Gen: n.gen}
			if err := n.send(done); err != nil {
				return round, false, err
			}
			if n.size == 1 {
				return round, false, nil
			}
			pendingDone = &done
			continue
		}
		round = msg.Round + 1
		delta, err := n.update()
		if err != nil {
			return round, false, err
		}
		if err := n.send(Message{Kind: Token, Round: round, Norm: delta, Gen: n.gen}); err != nil {
			return round, false, err
		}
	}
}

// runFollower executes the role of nodes 1..m-1: add the local delta to the
// token and forward; forward Done and exit, reporting how many rounds were
// seen and whether termination was a convergence or an abort.
func (n *node) runFollower() (rounds int, converged bool, err error) {
	for {
		msg, err := n.tr.Recv()
		if err != nil {
			return rounds, false, err
		}
		if msg.Gen < n.gen {
			continue // superseded by a leader recovery; discard
		}
		n.gen = msg.Gen
		if msg.Kind == Done {
			return rounds, !msg.Aborted, n.send(msg)
		}
		rounds = msg.Round
		delta, err := n.update()
		if err != nil {
			return rounds, false, err
		}
		msg.Norm += delta
		if err := n.send(msg); err != nil {
			return rounds, false, err
		}
	}
}

// NodeConfig describes one standalone ring node for multi-process
// deployments: its identity, the ring size, and its user's arrival rate.
type NodeConfig struct {
	// ID is the node's 0-based position; node 0 leads (initiates rounds
	// and decides termination).
	ID int
	// Users is the ring size m.
	Users int
	// Arrival is this user's job arrival rate phi_i.
	Arrival float64
	// Epsilon is the norm tolerance (leader only; core default if 0).
	Epsilon float64
	// MaxRounds bounds the iteration (leader only; core default if 0).
	MaxRounds int
	// Epoch is this node's restart incarnation. A node rejoining after a
	// crash must pass a higher epoch than its previous life so the ring's
	// duplicate suppression accepts its restarted sequence numbers.
	Epoch uint64
	// RecvTimeout, when positive, arms the liveness guard: the node fails
	// with ErrRecvTimeout (or, on a recovering leader, re-injects the token)
	// when nothing arrives within this duration.
	RecvTimeout time.Duration
	// Recover, on the leader (ID 0), turns receive timeouts into token
	// recovery: the generation is bumped and the token re-injected instead
	// of failing the run. Requires RecvTimeout > 0 to have any effect.
	Recover bool
	// MaxRecoveries bounds the leader's recovery attempts (16 if 0).
	MaxRecoveries int
}

// NodeResult reports a standalone node's outcome.
type NodeResult struct {
	// Rounds is the number of rounds this node participated in.
	Rounds int
	// Converged reports whether the ring terminated by convergence.
	Converged bool
	// Strategy is this user's final strategy.
	Strategy game.Strategy
}

// newNode builds cfg's ring node over tr: the ε and max-round defaults,
// duplicate suppression, and a warm start. A node whose user already
// published a strategy (a warm-started store, or a restart after a crash)
// resumes from it, so its first delta measures real change; an all-zero
// strategy is a cold start and prevD stays 0, as NASH_0 prescribes.
func newNode(cfg NodeConfig, store StateStore, tr Transport) *node {
	n := &node{
		id:      cfg.ID,
		size:    cfg.Users,
		arrival: cfg.Arrival,
		store:   store,
		tr:      NewDedup(tr),
		eps:     cfg.Epsilon,
		maxR:    cfg.MaxRounds,
		epoch:   cfg.Epoch,
	}
	if n.eps <= 0 {
		n.eps = core.DefaultEpsilon
	}
	if n.maxR <= 0 {
		n.maxR = core.DefaultMaxRounds
	}
	if p := store.Snapshot(); len(p) > cfg.ID && !isZero(p[cfg.ID]) {
		if avail, err := store.Available(cfg.ID); err == nil {
			n.prevD = core.ResponseTime(avail, cfg.Arrival, p[cfg.ID])
		}
	}
	return n
}

// RunNode executes one ring node to completion against a (possibly remote)
// state store and a (possibly TCP) transport. It is the entry point used by
// cmd/nashd -mode node, where every user is its own OS process; Run is the
// single-process convenience that spawns all nodes on goroutines.
func RunNode(cfg NodeConfig, store StateStore, tr Transport) (*NodeResult, error) {
	if cfg.ID < 0 || cfg.Users < 1 || cfg.ID >= cfg.Users {
		return nil, fmt.Errorf("dist: invalid node identity %d of %d", cfg.ID, cfg.Users)
	}
	if !(cfg.Arrival > 0) {
		return nil, fmt.Errorf("dist: invalid arrival rate %g", cfg.Arrival)
	}
	guarded := tr
	if cfg.RecvTimeout > 0 {
		guarded = &Timeout{Inner: tr, D: cfg.RecvTimeout}
	}
	n := newNode(cfg, store, guarded)
	if cfg.ID == 0 && cfg.Recover && cfg.RecvTimeout > 0 {
		budget := cfg.MaxRecoveries
		if budget <= 0 {
			budget = 16
		}
		n.recover = func(uint64) bool {
			if budget <= 0 {
				return false
			}
			budget--
			return true
		}
	}
	var res NodeResult
	var err error
	if cfg.ID == 0 {
		res.Rounds, res.Converged, err = n.runLeader()
	} else {
		res.Rounds, res.Converged, err = n.runFollower()
	}
	if err != nil {
		return nil, fmt.Errorf("dist: node %d: %w", cfg.ID, err)
	}
	if p := store.Snapshot(); len(p) > cfg.ID {
		res.Strategy = p[cfg.ID]
	}
	return &res, nil
}

// ErrRingSize is returned when the transport count does not match the users.
var ErrRingSize = errors.New("dist: transport count does not match user count")

// Run executes the NASH token-ring protocol over the given transports and
// store. transports[i] is user i's endpoint; the store holds the starting
// profile (warm starts are supported by seeding the store, which is how a
// crashed-and-restarted ring resumes). It blocks until all nodes exit.
func Run(sys *game.System, store StateStore, transports []Transport, opts Options) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	m := sys.Users()
	if len(transports) != m {
		return nil, fmt.Errorf("%w: %d transports for %d users", ErrRingSize, len(transports), m)
	}
	nodes := make([]*node, m)
	for i := 0; i < m; i++ {
		tr := transports[i]
		if opts.RecvTimeout > 0 {
			tr = &Timeout{Inner: tr, D: opts.RecvTimeout}
		}
		cfg := NodeConfig{ID: i, Users: m, Arrival: sys.Arrivals[i], Epsilon: opts.Epsilon, MaxRounds: opts.MaxRounds}
		nodes[i] = newNode(cfg, store, tr)
	}

	var wg sync.WaitGroup
	errs := make([]error, m)
	var rounds int
	var converged bool
	for i := 1; i < m; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = nodes[i].runFollower()
		}()
	}
	rounds, converged, errs[0] = nodes[0].runLeader()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dist: node %d: %w", i, err)
		}
	}
	profile := store.Snapshot()
	res := &Result{
		Profile:     profile,
		Rounds:      rounds,
		Converged:   converged,
		Norm:        nodes[0].finalNorm,
		UserTimes:   sys.UserResponseTimes(profile),
		OverallTime: sys.OverallResponseTime(profile),
	}
	if !converged {
		return res, fmt.Errorf("dist: %w after %d rounds", core.ErrNotConverged, rounds)
	}
	return res, nil
}

// Solve runs the protocol over in-process channels with a fresh exact store.
func Solve(sys *game.System, opts Options) (*Result, error) {
	store := NewMemoryStore(sys, core.InitialProfile(sys, opts.Init))
	return Run(sys, store, ChanRing(sys.Users()), opts)
}

// SolveTCP runs the protocol over a loopback TCP ring with a fresh exact
// store; it exists to exercise the production wire path end to end.
func SolveTCP(sys *game.System, opts Options) (*Result, error) {
	transports, err := TCPRing(sys.Users())
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, t := range transports {
			t.Close()
		}
	}()
	store := NewMemoryStore(sys, core.InitialProfile(sys, opts.Init))
	return Run(sys, store, transports, opts)
}

func isZero(s game.Strategy) bool {
	for _, x := range s {
		if x != 0 {
			return false
		}
	}
	return true
}
