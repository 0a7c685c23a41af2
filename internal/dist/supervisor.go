package dist

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"nashlb/internal/core"
	"nashlb/internal/game"
)

// The supervisor is the fault-tolerant runtime for the NASH ring: it owns
// the routing fabric between the in-process nodes, detects stalled token
// circulations through the leader's liveness guard, re-injects lost tokens
// under bumped generations, ejects nodes that keep missing generations
// (their strategy stays frozen at the last value published to the
// StateStore, and the survivors re-converge to the reduced game's
// equilibrium), and optionally restarts crashed nodes so they rejoin with
// their published strategy.

// SupervisorOptions configures Supervise.
type SupervisorOptions struct {
	// Epsilon is the norm acceptance tolerance (core.DefaultEpsilon if 0).
	Epsilon float64
	// MaxRounds bounds the circulations (core.DefaultMaxRounds if 0).
	MaxRounds int
	// RecvTimeout is the leader's stall-detection deadline (250ms if 0).
	RecvTimeout time.Duration
	// MaxMisses is how many consecutive generations a node may miss before
	// it is ejected from the ring (3 if 0). Forwarding any newer generation
	// resets a node's miss count, so transient link faults do not accumulate
	// into an ejection.
	MaxMisses int
	// MaxRecoveries bounds total token re-injections (256 if 0).
	MaxRecoveries int
	// Restart revives nodes that fail with ErrCrashed (after RestartDelay)
	// instead of leaving them to be ejected; the transport must support it
	// (Chaos does, via Revive).
	Restart bool
	// RestartDelay is how long a crashed node stays down before restarting.
	RestartDelay time.Duration
	// Wrap, when set, decorates node i's transport — the hook for injecting
	// Chaos (or any other fault wrapper) per node. Wrapping node 0 with
	// scheduled crashes is unsupported: the leader is the recovery agent.
	Wrap func(id int, tr Transport) Transport
}

// SupervisorResult extends Result with the fault-handling history.
type SupervisorResult struct {
	Result
	// Recoveries counts token re-injections after detected stalls.
	Recoveries int
	// Generations is the final token generation (1 when no recovery ran).
	Generations uint64
	// Restarts counts crash-then-restart revivals.
	Restarts int
	// Ejected lists ejected nodes in ejection order.
	Ejected []int
}

// errSupShutdown tells follower goroutines the run is over.
var errSupShutdown = errors.New("dist: supervisor shutting down")

// supRing is the supervisor's routing fabric: one inbox per node, with
// liveness bookkeeping (last generation forwarded, missed generations) and
// the membership bits (routable, ejected) that rewire the ring around dead
// nodes.
type supRing struct {
	done      chan struct{}
	closeOnce sync.Once

	mu            sync.Mutex
	inbox         []chan Message
	routable      []bool
	ejected       []bool
	lastGen       []uint64
	misses        []int
	ejectOrder    []int
	recoveries    int
	restarts      int
	maxMisses     int
	maxRecoveries int
}

func newSupRing(m, maxMisses, maxRecoveries int) *supRing {
	r := &supRing{
		done:          make(chan struct{}),
		inbox:         make([]chan Message, m),
		routable:      make([]bool, m),
		ejected:       make([]bool, m),
		lastGen:       make([]uint64, m),
		misses:        make([]int, m),
		maxMisses:     maxMisses,
		maxRecoveries: maxRecoveries,
	}
	for i := range r.inbox {
		// Buffered so a briefly slow node does not back-pressure the ring;
		// overflow is dropped (see route), which token recovery absorbs.
		r.inbox[i] = make(chan Message, 64)
		r.routable[i] = true
	}
	return r
}

// succLocked returns the first routable node after from in ring order, or
// from itself when everyone else is gone (the leader then receives its own
// messages and can terminate alone).
func (r *supRing) succLocked(from int) int {
	m := len(r.inbox)
	for k := 1; k < m; k++ {
		if j := (from + k) % m; r.routable[j] {
			return j
		}
	}
	return from
}

// route delivers m from node from to its current successor, folding the
// sender's liveness evidence into the bookkeeping.
func (r *supRing) route(from int, m Message) error {
	r.mu.Lock()
	if m.Gen > r.lastGen[from] {
		r.lastGen[from] = m.Gen
		r.misses[from] = 0 // forwarding a new generation proves liveness
	}
	inbox := r.inbox[r.succLocked(from)]
	r.mu.Unlock()
	select {
	case <-r.done:
		return errSupShutdown
	default:
	}
	select {
	case inbox <- m:
	default:
		// Inbox full — the receiver is down or wedged. Dropping is safe:
		// the leader's stall detection re-injects anything that mattered.
	}
	return nil
}

// onStall is the leader's recover hook: account for one stall, blame the
// first live node in ring order that never forwarded the current generation
// (in a ring, that is where the token died), and eject it once it has
// accumulated maxMisses. Returns false when the recovery budget is spent.
func (r *supRing) onStall(gen uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recoveries++
	if r.recoveries > r.maxRecoveries {
		return false
	}
	for i := 1; i < len(r.inbox); i++ {
		if !r.routable[i] || r.lastGen[i] >= gen {
			continue
		}
		r.misses[i]++
		if r.misses[i] >= r.maxMisses {
			r.routable[i] = false
			r.ejected[i] = true
			r.ejectOrder = append(r.ejectOrder, i)
		}
		break
	}
	return true
}

// deregister removes a cleanly exited node from the routing (not an
// ejection — its work is done).
func (r *supRing) deregister(i int) {
	r.mu.Lock()
	r.routable[i] = false
	r.mu.Unlock()
}

func (r *supRing) isEjected(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ejected[i]
}

func (r *supRing) noteRestart() {
	r.mu.Lock()
	r.restarts++
	r.mu.Unlock()
}

func (r *supRing) stats() (recoveries, restarts int, ejected []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recoveries, r.restarts, append([]int(nil), r.ejectOrder...)
}

func (r *supRing) shutdown() {
	r.closeOnce.Do(func() { close(r.done) })
}

// supTransport is node id's endpoint on the supervisor's fabric.
type supTransport struct {
	ring *supRing
	id   int
}

func (s *supTransport) Send(m Message) error { return s.ring.route(s.id, m) }

func (s *supTransport) Recv() (Message, error) {
	select {
	case m := <-s.ring.inbox[s.id]:
		return m, nil
	case <-s.ring.done:
		return Message{}, errSupShutdown
	}
}

func (s *supTransport) Close() error { return nil }

// Supervise runs the NASH protocol under fault supervision: all m users on
// goroutines over the supervisor's routing fabric, the leader armed with
// stall detection and token recovery, dead nodes ejected after MaxMisses
// missed generations, and (with Restart) crashed nodes revived. The store
// holds the starting profile exactly as in Run; an ejected node's strategy
// stays frozen at its last published value, so the survivors converge to
// the Nash equilibrium of the game with that flow held fixed.
func Supervise(sys *game.System, store StateStore, opts SupervisorOptions) (*SupervisorResult, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	m := sys.Users()
	recvT := opts.RecvTimeout
	if recvT <= 0 {
		recvT = 250 * time.Millisecond
	}
	maxMisses := opts.MaxMisses
	if maxMisses <= 0 {
		maxMisses = 3
	}
	maxRec := opts.MaxRecoveries
	if maxRec <= 0 {
		maxRec = 256
	}

	ring := newSupRing(m, maxMisses, maxRec)
	links := make([]Transport, m)
	for i := 0; i < m; i++ {
		var tr Transport = &supTransport{ring: ring, id: i}
		if opts.Wrap != nil {
			if w := opts.Wrap(i, tr); w != nil {
				tr = w
			}
		}
		links[i] = tr
	}

	ringNode := func(i int, epoch uint64, tr Transport) *node {
		return newNode(NodeConfig{ID: i, Users: m, Arrival: sys.Arrivals[i], Epsilon: opts.Epsilon,
			MaxRounds: opts.MaxRounds, Epoch: epoch}, store, tr)
	}

	var wg sync.WaitGroup
	errs := make([]error, m)
	for i := 1; i < m; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for epoch := uint64(0); ; epoch++ {
				_, _, err := ringNode(i, epoch, links[i]).runFollower()
				switch {
				case err == nil:
					ring.deregister(i)
					return
				case errors.Is(err, errSupShutdown):
					return
				case errors.Is(err, ErrCrashed):
					if !opts.Restart || ring.isEjected(i) {
						// Stay routed but silent: the stall detector will
						// blame and eventually eject this node.
						return
					}
					rv, ok := links[i].(interface{ Revive() })
					if !ok {
						errs[i] = fmt.Errorf("transport cannot restart after crash: %w", err)
						ring.deregister(i)
						return
					}
					if opts.RestartDelay > 0 {
						t := time.NewTimer(opts.RestartDelay)
						select {
						case <-t.C:
						case <-ring.done:
							t.Stop()
							return
						}
					}
					if ring.isEjected(i) {
						return // ejected while down; stay out
					}
					rv.Revive()
					ring.noteRestart()
					// Next epoch rejoins with the published strategy.
				default:
					errs[i] = err
					ring.deregister(i)
					return
				}
			}
		}()
	}

	leaderTr := &Timeout{Inner: links[0], D: recvT}
	leader := ringNode(0, 0, leaderTr)
	leader.gen = 1
	leader.recover = ring.onStall
	rounds, converged, lerr := leader.runLeader()
	ring.shutdown()
	wg.Wait()
	leaderTr.Close()

	recoveries, restarts, ejected := ring.stats()
	profile := store.Snapshot()
	res := &SupervisorResult{
		Result: Result{
			Profile:     profile,
			Rounds:      rounds,
			Converged:   converged,
			Norm:        leader.finalNorm,
			UserTimes:   sys.UserResponseTimes(profile),
			OverallTime: sys.OverallResponseTime(profile),
		},
		Recoveries:  recoveries,
		Generations: leader.gen,
		Restarts:    restarts,
		Ejected:     ejected,
	}
	if lerr != nil {
		return res, fmt.Errorf("dist: leader: %w", lerr)
	}
	for i, err := range errs {
		if err != nil && !ring.isEjected(i) {
			return res, fmt.Errorf("dist: node %d: %w", i, err)
		}
	}
	if !converged {
		return res, fmt.Errorf("dist: %w after %d rounds", core.ErrNotConverged, rounds)
	}
	return res, nil
}
