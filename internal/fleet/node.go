package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nashlb/internal/dist"
	"nashlb/internal/fleet/audit"
	"nashlb/internal/game"
	"nashlb/internal/rng"
	"nashlb/internal/serve"
)

// Config describes one fleet node: a nashgate data plane plus its replica of
// the control plane.
type Config struct {
	// ID is this node's fleet identity. Leadership goes to the lowest alive
	// non-draining ID, so ID 0 is the natural first leader.
	ID int
	// Machines is the provisioned machine universe: every backend this
	// fleet may ever route to, with the initial Active flags. The universe
	// is fixed at startup — gateways size their samplers, breakers and
	// metrics for it — and elastic membership activates or drains machines
	// within it.
	Machines []Machine
	// Arrivals is the nominal per-user arrival-rate vector for the whole
	// fleet (the full game); leaders re-weight it with the replicas' live
	// estimates of their traffic shares.
	Arrivals []float64
	// Gateway is the data-plane template: Backends, Rates, Arrivals,
	// Profile and OnWeights are filled in by the node; everything else
	// (timeouts, breakers, admission shaping) passes through.
	Gateway serve.GatewayConfig
	// HeartbeatEvery is the peer-probe period (default 50ms); a peer is
	// declared dead after MaxMisses consecutive failed probes (default 3).
	HeartbeatEvery time.Duration
	MaxMisses      int
	// SolveEvery is the supervision epoch: how often the leader re-gathers
	// reports and re-solves the aggregate game. A new leader solves
	// immediately on assumption, so failover recovery is bounded by
	// detection time, not by this period (default 250ms).
	SolveEvery time.Duration
	// EstimateAlpha is the EWMA weight for the per-user admitted-rate
	// estimate (default 0.3); EstimateEvery is its sampling period
	// (default 150ms). Each sample differences the gateway's cumulative
	// admission counters over a sliding EstimateWindow (default 1s): at
	// fleet-scale per-gateway rates a single sampling period holds only a
	// handful of arrivals, and a rate read off one short window is noise.
	EstimateAlpha  float64
	EstimateEvery  time.Duration
	EstimateWindow time.Duration
	// Autoscale enables the elastic-capacity hook (off by default).
	Autoscale AutoscaleConfig
	// Addr is the control listener address ("127.0.0.1:0" when empty).
	Addr string

	// Quorum is how many fleet nodes (itself included) a node must be able
	// to heartbeat to assume or retain leadership. Zero means a strict
	// majority of the provisioned universe (peers that advertised a
	// graceful drain leave the denominator; crashed peers do not). A node
	// below quorum keeps serving its last-installed table in degraded mode
	// but stops solving and distributing.
	Quorum int
	// DurableDir, when non-empty, persists the control-plane snapshot
	// (generations, grants, membership, estimator EWMAs, last installed
	// table) through crash-safe atomic renames; on restart the node resumes
	// from it instead of the nominal game and refuses epoch regressions.
	DurableDir string
	// Seed roots the control-plane jitter stream: co-started nodes probe
	// and solve out of lockstep, reproducibly per (Seed, ID).
	Seed uint64
	// Link, when non-nil, gates every outbound control-plane call — the
	// partition-nemesis hook. A blocked link behaves like a dead network
	// path: probes miss, pushes fail, claims go unanswered.
	Link dist.LinkPolicy
	// Trace, when non-nil, receives the safety-audit event stream (nil
	// disables tracing at zero cost).
	Trace *audit.Trace
}

// Node is one fleet replica: it serves traffic through its gateway from the
// first request, probes its peers, takes over solving when it is the lowest
// alive ID, and otherwise applies whatever fenced tables the leader pushes.
type Node struct {
	cfg    Config
	gw     *serve.Gateway
	ln     net.Listener
	srv    *http.Server
	client *http.Client

	quit     chan struct{}
	kick     chan struct{} // out-of-band solve nudge (health changes)
	stopOnce sync.Once
	wg       sync.WaitGroup
	solveMu  sync.Mutex // serializes solveAndDistribute across triggers
	// installMu serializes gateway installs with their commit records, so
	// the audited install order matches the fence's accept order.
	installMu sync.Mutex

	wal  *WAL      // nil without a durable dir
	snap *Snapshot // state loaded at construction (nil on first boot)
	jr   *rng.Stream

	mu           sync.Mutex
	peers        []string // control URLs indexed by node ID ("" = self)
	alive        []bool
	drainingPeer []bool
	misses       []int
	leader       int // believed leader ID, -1 while unknown
	wasLeader    bool
	quorumOK     bool
	maxEpoch     uint64 // highest leadership generation observed anywhere
	grantGen     uint64 // highest generation granted to any candidate
	leadEpoch    uint64 // our own reign's epoch while leading
	leadVersion  uint64
	epoch        uint64 // (epoch, version) of the last installed table
	version      uint64
	active       []bool // active flags of the last installed table
	lastTable    serve.Table
	draining     bool
	estRates     []float64
	estInit      bool
	samples      []countSample // admission counter ring, oldest first
	lastEstAt    time.Time
	aggSmooth    []float64 // leader-side EWMA of the aggregated arrivals
	lowStreak    int
	highStreak   int

	// Last-distributed table content, guarded by solveMu: the leader skips
	// the version bump and the fleet-wide push when a re-solve lands on the
	// exact table already out there, refreshing periodically (anti-entropy)
	// so a replica that missed a push still converges.
	lastDistEpoch uint64
	lastProfile   game.Profile
	lastActive    []bool
	lastAlive     []bool
	lastAdmitFrac float64
	lastDistAt    time.Time

	elections atomic.Int64
	solves    atomic.Int64
	distSkips atomic.Int64
	solveFail atomic.Int64 // led epochs whose solve failed (no table went out)
}

// antiEntropyEvery bounds how many supervision epochs an unchanged table
// may go without being re-pushed: at most this many solve intervals pass
// before even an identical table is distributed again.
const antiEntropyEvery = 8

// NewNode validates the configuration, binds the control listener (so
// ControlURL is known before Start), and builds the gateway over the full
// machine universe. Every node solves the nominal full game for its initial
// routing table, so all replicas start from the same equilibrium before the
// first leader table arrives.
func NewNode(cfg Config) (*Node, error) {
	if cfg.ID < 0 {
		return nil, fmt.Errorf("fleet: negative node id %d", cfg.ID)
	}
	if err := validMachines(cfg.Machines); err != nil {
		return nil, err
	}
	if len(cfg.Arrivals) == 0 {
		return nil, errors.New("fleet: node needs at least one user")
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 50 * time.Millisecond
	}
	if cfg.MaxMisses <= 0 {
		cfg.MaxMisses = 3
	}
	if cfg.SolveEvery <= 0 {
		cfg.SolveEvery = 250 * time.Millisecond
	}
	if cfg.EstimateAlpha <= 0 || cfg.EstimateAlpha > 1 {
		cfg.EstimateAlpha = 0.3
	}
	if cfg.EstimateEvery <= 0 {
		cfg.EstimateEvery = 150 * time.Millisecond
	}
	if cfg.EstimateWindow <= 0 {
		cfg.EstimateWindow = time.Second
	}
	if cfg.EstimateWindow < cfg.EstimateEvery {
		cfg.EstimateWindow = cfg.EstimateEvery
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Quorum < 0 {
		return nil, fmt.Errorf("fleet: negative quorum %d", cfg.Quorum)
	}

	n := &Node{
		cfg:      cfg,
		quit:     make(chan struct{}),
		kick:     make(chan struct{}, 1),
		leader:   -1,
		quorumOK: true, // optimistic, like the liveness view at cold start
		active:   make([]bool, len(cfg.Machines)),
		jr:       rng.NewSource(cfg.Seed).Stream(fmt.Sprintf("fleet/jitter/%d", cfg.ID)),
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     30 * time.Second,
			},
		},
	}
	for j, m := range cfg.Machines {
		n.active[j] = m.Active
	}

	if cfg.DurableDir != "" {
		wal, snap, err := OpenWAL(cfg.DurableDir)
		if err != nil {
			return nil, err
		}
		if snap != nil {
			if err := snap.compatible(cfg); err != nil {
				return nil, err
			}
			// Resume: generations and grants must survive the crash (a
			// forgotten grant could hand one generation to two candidates),
			// and membership + leader-side smoothing pick up where the last
			// reign left them.
			n.maxEpoch = snap.Gen
			n.grantGen = snap.GrantGen
			copy(n.active, snap.Active)
			if len(snap.AggSmooth) == len(cfg.Arrivals) {
				n.aggSmooth = append([]float64(nil), snap.AggSmooth...)
			}
		}
		n.wal, n.snap = wal, snap
	}

	gwCfg := cfg.Gateway
	gwCfg.Backends = make([]string, len(cfg.Machines))
	gwCfg.Rates = make([]float64, len(cfg.Machines))
	for j, m := range cfg.Machines {
		gwCfg.Backends[j] = m.URL
		gwCfg.Rates[j] = m.Rate
	}
	gwCfg.Arrivals = append([]float64(nil), cfg.Arrivals...)
	gwCfg.Profile = nil // the initial table install carries the equilibrium
	gwCfg.OnWeights = n.onWeights
	gwCfg.ExtraMetrics = n.renderMetrics
	gw, err := serve.NewGateway(gwCfg)
	if err != nil {
		return nil, err
	}
	n.gw = gw

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("fleet: control listen: %w", err)
	}
	n.ln = ln
	return n, nil
}

// ControlURL returns the node's control-plane base URL.
func (n *Node) ControlURL() string { return "http://" + n.ln.Addr().String() }

// GatewayURL returns the data-plane base URL (empty before Start).
func (n *Node) GatewayURL() string { return n.gw.URL() }

// Gateway exposes the underlying data plane (tests and metrics scraping).
func (n *Node) Gateway() *serve.Gateway { return n.gw }

// Leader returns the believed leader's ID (-1 while unknown).
func (n *Node) Leader() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leader
}

// QuorumOK reports whether this node currently heartbeats a quorum of the
// provisioned universe (false = degraded minority mode).
func (n *Node) QuorumOK() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.quorumOK
}

// Generation returns the highest leadership generation this node has seen
// or granted.
func (n *Node) Generation() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.grantGen > n.maxEpoch {
		return n.grantGen
	}
	return n.maxEpoch
}

// TableEpoch returns the (epoch, version) of the node's installed table.
func (n *Node) TableEpoch() (uint64, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch, n.version
}

// Elections counts leadership assumptions by this node.
func (n *Node) Elections() int64 { return n.elections.Load() }

// Solves counts the supervision epochs this node has led.
func (n *Node) Solves() int64 { return n.solves.Load() }

// SolveFailures counts the led epochs whose solve failed (the reduced game
// was infeasible or did not converge), so replicas kept their last table.
func (n *Node) SolveFailures() int64 { return n.solveFail.Load() }

// TableSkips counts leader supervision epochs whose re-solve produced the
// exact table already distributed, so no version bump or push went out.
func (n *Node) TableSkips() int64 { return n.distSkips.Load() }

// Machines returns the universe with the currently installed Active flags.
func (n *Node) Machines() []Machine {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Machine, len(n.cfg.Machines))
	for j, m := range n.cfg.Machines {
		m.Active = n.active[j]
		out[j] = m
	}
	return out
}

// Start launches the data plane and the control plane. peers maps node ID to
// control URL for the whole fleet (the self entry is ignored); every node
// must be given the same mapping.
func (n *Node) Start(peers []string) error {
	if n.cfg.ID >= len(peers) {
		return fmt.Errorf("fleet: node id %d outside peer list of %d", n.cfg.ID, len(peers))
	}
	if n.cfg.Quorum > len(peers) {
		return fmt.Errorf("fleet: quorum %d larger than the %d-node universe", n.cfg.Quorum, len(peers))
	}
	n.mu.Lock()
	n.peers = append([]string(nil), peers...)
	n.peers[n.cfg.ID] = ""
	n.alive = make([]bool, len(peers))
	n.drainingPeer = make([]bool, len(peers))
	n.misses = make([]int, len(peers))
	for i := range n.alive {
		// Optimistic start: a peer that never answers is declared dead
		// after MaxMisses probes; assuming death first would trigger a
		// spurious election at every cold start.
		n.alive[i] = true
	}
	n.estRates = make([]float64, len(n.cfg.Arrivals))
	if n.snap != nil && len(n.snap.EstRates) == len(n.estRates) {
		copy(n.estRates, n.snap.EstRates)
		n.estInit = true
	}
	n.mu.Unlock()

	if err := n.gw.Start(); err != nil {
		return err
	}

	if n.snap != nil && n.snap.Profile != nil {
		// Resume from last-known-good: the persisted table goes back into
		// the gateway at its original fence mark before the control plane
		// answers anyone, so a rejoining node serves the last equilibrium
		// it had — not the nominal game — and 409s any stale reign's push.
		if err := n.installAndCommit(serve.Table{
			Epoch: n.snap.Epoch, Version: n.snap.Version,
			Profile:     n.snap.Profile,
			Active:      append([]bool(nil), n.snap.Active...),
			AdmitFrac:   n.snap.AdmitFrac,
			OfferedRate: n.snap.OfferedRate,
		}, n.snap.Leader); err != nil {
			return fmt.Errorf("fleet: resume from snapshot: %w", err)
		}
	} else {
		// Seed routing with the nominal full-game equilibrium at (epoch 0,
		// version 1): identical on every replica (the solver is
		// deterministic), superseded by the first elected leader's table.
		if t, err := n.gw.SolveTable(n.cfg.Arrivals, nil, n.active); err == nil {
			t.Version = 1
			t.OfferedRate /= float64(len(peers))
			_ = n.installAndCommit(t, -1)
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /fleet", n.handleFleet)
	mux.HandleFunc("GET /fleet/heartbeat", n.handleHeartbeat)
	mux.HandleFunc("GET /fleet/report", n.handleReport)
	mux.HandleFunc("POST /fleet/table", n.handleTable)
	mux.HandleFunc("POST /fleet/claim", n.handleClaim)
	mux.HandleFunc("POST /fleet/machines", n.handleMachines)
	n.srv = &http.Server{Handler: mux}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		_ = n.srv.Serve(n.ln)
	}()

	n.wg.Add(1)
	go n.run()
	return nil
}

// Stop drains the node out of the fleet gracefully: admission stops (new
// requests get 503 + Retry-After and fail over to peers), the draining flag
// rides the next heartbeats so peers elect around this node and stop
// counting its reports, in-flight requests finish, and only then do the
// servers close.
func (n *Node) Stop() error {
	n.mu.Lock()
	already := n.draining
	n.draining = true
	n.mu.Unlock()
	n.gw.Drain()
	if !already {
		// Let a couple of heartbeat rounds advertise the drain before the
		// control plane disappears — the polite deregistration.
		time.Sleep(2*n.cfg.HeartbeatEvery + 10*time.Millisecond)
	}
	n.stopOnce.Do(func() { close(n.quit) })
	err := n.gw.Close()
	if n.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if serr := n.srv.Shutdown(ctx); serr != nil {
			err = errors.Join(err, n.srv.Close())
		}
	}
	n.wg.Wait()
	n.client.CloseIdleConnections()
	return err
}

// Kill crashes the node: control plane and data plane drop instantly,
// in-flight requests included — the chaos-harness leader-kill.
func (n *Node) Kill() error {
	n.stopOnce.Do(func() { close(n.quit) })
	var err error
	if n.srv != nil {
		err = n.srv.Close()
	}
	err = errors.Join(err, n.gw.Kill())
	n.wg.Wait()
	n.client.CloseIdleConnections()
	return err
}

// onWeights is the gateway's managed-mode callback: a health-layer change
// (breaker trip, recovery ramp step) just needs the next solve to see fresh
// weights, which /fleet/report serves on demand — so the only action is to
// nudge the run loop so a leading node solves sooner. Never blocks (it runs
// on the gateway's health loop).
func (n *Node) onWeights([]float64) {
	select {
	case n.kick <- struct{}{}:
	default:
	}
}

// jitterSpan is the fractional spread of the seeded timer jitter: each
// heartbeat and solve interval is drawn from [1 - span/2, 1 + span/2) of
// its nominal period, so co-started nodes drift out of lockstep instead of
// probing and solving in phase forever.
const jitterSpan = 0.3

// jitter scales one timer period by a seeded factor. Only the run loop
// draws from the stream, so no lock is needed.
func (n *Node) jitter(d time.Duration) time.Duration {
	f := 1 - jitterSpan/2 + jitterSpan*n.jr.Float64()
	return time.Duration(f * float64(d))
}

// linkUp consults the partition nemesis (if any) for the control link from
// this node to peer id.
func (n *Node) linkUp(to int) bool {
	return n.cfg.Link == nil || n.cfg.Link.Allow(n.cfg.ID, to)
}

// traceLocked records one audit event. Callers hold n.mu, so the trace
// order is exactly the node's state-transition order.
func (n *Node) traceLocked(k audit.Kind, gen, epoch, version uint64) {
	if n.cfg.Trace != nil {
		n.cfg.Trace.Record(n.cfg.ID, k, gen, epoch, version)
	}
}

// run is the supervision loop: probe peers, refresh arrival estimates,
// check quorum, claim leadership when this node is the designated
// candidate, and solve when leading — immediately on assumption, then
// every (jittered) SolveEvery, plus whenever the health layer kicks.
func (n *Node) run() {
	defer n.wg.Done()
	timer := time.NewTimer(n.jitter(n.cfg.HeartbeatEvery))
	defer timer.Stop()
	var nextSolve time.Time
	for {
		select {
		case <-n.quit:
			return
		case <-timer.C:
			timer.Reset(n.jitter(n.cfg.HeartbeatEvery))
		case <-n.kick:
		}
		n.probePeers()
		n.updateEstimates()

		n.mu.Lock()
		reachable, need := n.quorumLocked()
		qOK := reachable >= need
		qChanged := qOK != n.quorumOK
		n.quorumOK = qOK
		if qChanged {
			if qOK {
				n.traceLocked(audit.QuorumGained, 0, 0, 0)
			} else {
				n.traceLocked(audit.QuorumLost, 0, 0, 0)
			}
		}
		cand := n.electLocked(qOK)
		amLeader := n.wasLeader
		deposedBy := uint64(0)
		if amLeader && n.maxEpoch > n.leadEpoch {
			deposedBy = n.maxEpoch
		}
		draining := n.draining
		n.mu.Unlock()

		if qChanged {
			// Surface control-plane degradation on the data plane: the
			// gateway keeps serving its last table, flagged on /backends.
			n.gw.SetControlDegraded(!qOK)
		}
		if amLeader && (deposedBy > 0 || !qOK) {
			// Retention gate: leadership ends the moment a newer generation
			// is seen or the majority is gone.
			n.stepDown(deposedBy)
			amLeader = false
		}
		if !amLeader && qOK && !draining && cand == n.cfg.ID {
			if n.claimLeadership() {
				amLeader = true
				nextSolve = time.Time{} // solve immediately on assumption
			}
		}
		if amLeader && !time.Now().Before(nextSolve) {
			n.solveAndDistribute()
			nextSolve = time.Now().Add(n.jitter(n.cfg.SolveEvery))
		}
	}
}

// quorumLocked counts this node's connectivity against the provisioned
// universe: reachable is itself plus every alive peer; the denominator is
// the whole universe minus peers that advertised a graceful drain (polite
// deregistration shrinks the fleet, a crash or partition does not). need is
// the configured quorum, defaulting to a strict majority, clamped to the
// (possibly drained-down) universe.
func (n *Node) quorumLocked() (reachable, need int) {
	universe := 0
	for i := range n.peers {
		if i == n.cfg.ID {
			universe++
			reachable++
			continue
		}
		if n.drainingPeer[i] {
			continue
		}
		universe++
		if n.alive[i] {
			reachable++
		}
	}
	need = n.cfg.Quorum
	if need <= 0 {
		need = universe/2 + 1
	}
	if need > universe {
		need = universe
	}
	return reachable, need
}

// electLocked updates the believed leader: the lowest alive, non-draining
// node ID — the same deterministic lowest-survivor rule the dist ring uses
// for token recovery — or nobody while this node cannot see a quorum (its
// view of "lowest alive" is then worthless by construction).
func (n *Node) electLocked(quorumOK bool) int {
	lead := -1
	if quorumOK {
		for i := range n.alive {
			ok := n.alive[i] && !n.drainingPeer[i]
			if i == n.cfg.ID {
				ok = !n.draining
			}
			if ok {
				lead = i
				break
			}
		}
	}
	n.leader = lead
	return lead
}

// claimLeadership runs one generation-claim round, the quorum gate on
// assuming power. The candidate proposes gen = 1 + max(everything seen or
// granted), grants it to itself — persisted before a word leaves the node —
// and asks every reachable peer for a grant. Leadership requires grants
// from a strict quorum (self included). Any two majorities intersect and a
// peer grants a generation at most once, so no generation ever has two
// leaders, even under asymmetric partitions where heartbeat views disagree.
func (n *Node) claimLeadership() bool {
	n.mu.Lock()
	gen := n.maxEpoch
	if n.grantGen > gen {
		gen = n.grantGen
	}
	gen++
	n.grantGen = gen
	if gen > n.maxEpoch {
		n.maxEpoch = gen
	}
	type target struct {
		id  int
		url string
	}
	var targets []target
	for i, url := range n.peers {
		if url != "" && n.alive[i] && !n.drainingPeer[i] {
			targets = append(targets, target{i, url})
		}
	}
	_, need := n.quorumLocked()
	n.mu.Unlock()
	n.persist()

	var granted atomic.Int64
	granted.Add(1) // self-grant
	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		go func(t target) {
			defer wg.Done()
			if !n.linkUp(t.id) {
				return
			}
			rep, err := n.postClaim(t.url, Claim{ID: n.cfg.ID, Gen: gen})
			if err != nil {
				return
			}
			if rep.Granted {
				granted.Add(1)
			} else if rep.Gen > gen {
				// Refused: someone holds a newer generation. Fold it in so
				// the next proposal leapfrogs it.
				n.mu.Lock()
				if rep.Gen > n.maxEpoch {
					n.maxEpoch = rep.Gen
				}
				n.mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	if int(granted.Load()) < need {
		return false
	}

	n.mu.Lock()
	n.leadEpoch = gen
	n.leadVersion = 0
	n.wasLeader = true
	n.leader = n.cfg.ID
	n.elections.Add(1)
	n.traceLocked(audit.LeaderAcquire, gen, 0, 0)
	n.mu.Unlock()
	n.persist()
	return true
}

// postClaim sends one leadership claim to one peer.
func (n *Node) postClaim(url string, c Claim) (ClaimReply, error) {
	data, err := EncodeClaim(c)
	if err != nil {
		return ClaimReply{}, err
	}
	timeout := n.cfg.HeartbeatEvery
	if timeout < 25*time.Millisecond {
		timeout = 25 * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/fleet/claim", bytes.NewReader(data))
	if err != nil {
		return ClaimReply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		return ClaimReply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxMessage+1))
	if err != nil || resp.StatusCode != http.StatusOK {
		return ClaimReply{}, fmt.Errorf("fleet: claim status %d: %v", resp.StatusCode, err)
	}
	return DecodeClaimReply(body)
}

// probePeers heartbeats every peer concurrently and folds the answers into
// the liveness view. Probes run without holding the node lock.
func (n *Node) probePeers() {
	n.mu.Lock()
	peers := append([]string(nil), n.peers...)
	n.mu.Unlock()

	type outcome struct {
		ok bool
		hb Heartbeat
	}
	results := make([]outcome, len(peers))
	var wg sync.WaitGroup
	for i, url := range peers {
		if url == "" {
			continue
		}
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			if !n.linkUp(i) {
				return // a cut link is a missed probe, instantly
			}
			hb, err := n.fetchHeartbeat(url)
			results[i] = outcome{ok: err == nil, hb: hb}
		}(i, url)
	}
	wg.Wait()

	n.mu.Lock()
	defer n.mu.Unlock()
	for i := range peers {
		if peers[i] == "" {
			continue
		}
		if !results[i].ok {
			n.misses[i]++
			if n.misses[i] >= n.cfg.MaxMisses {
				n.alive[i] = false
			}
			continue
		}
		n.misses[i] = 0
		n.alive[i] = true
		n.drainingPeer[i] = results[i].hb.Draining
		if results[i].hb.Epoch > n.maxEpoch {
			n.maxEpoch = results[i].hb.Epoch
		}
		if results[i].hb.Gen > n.maxEpoch {
			n.maxEpoch = results[i].hb.Gen
		}
	}
}

func (n *Node) fetchHeartbeat(url string) (Heartbeat, error) {
	timeout := n.cfg.HeartbeatEvery
	if timeout < 25*time.Millisecond {
		timeout = 25 * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/fleet/heartbeat", nil)
	if err != nil {
		return Heartbeat{}, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return Heartbeat{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxMessage+1))
	if err != nil || resp.StatusCode != http.StatusOK {
		return Heartbeat{}, fmt.Errorf("fleet: heartbeat status %d: %v", resp.StatusCode, err)
	}
	return DecodeHeartbeat(body)
}

// countSample is one reading of the gateway's cumulative admission counters.
type countSample struct {
	counts []int64
	at     time.Time
}

// updateEstimates refreshes the EWMA per-user admitted-rate estimate — each
// replica's view of its own traffic share, reported to whoever leads. Each
// sample differences the cumulative counters against a reading from
// EstimateWindow ago (a ring of past readings), so one sample already
// averages over enough arrivals to mean something; the EWMA then tracks
// shifts, such as a dead peer's share failing over to this gateway.
//
// Only the node's run goroutine calls it, and Start sets the estimator state
// before run starts, so the clock readings reach samples and lastEstAt in
// the order they were taken and lastEstAt only moves forward: a reading
// older than the last one stored, the interleaving behind the admission
// bucket's late-timestamp bug, cannot happen here. n.mu guards the state
// against the report and status readers, not against a second writer.
func (n *Node) updateEstimates() {
	now := time.Now()
	counts := n.gw.AdmittedPerUser()
	n.mu.Lock()
	defer n.mu.Unlock()
	n.samples = append(n.samples, countSample{counts: counts, at: now})
	// Keep the oldest sample still inside the lookback window (plus one
	// older reading to anchor a full-width difference).
	for len(n.samples) > 1 && now.Sub(n.samples[1].at) >= n.cfg.EstimateWindow {
		n.samples = n.samples[1:]
	}
	if now.Sub(n.lastEstAt) < n.cfg.EstimateEvery {
		return
	}
	oldest := n.samples[0]
	elapsed := now.Sub(oldest.at)
	if elapsed <= 0 {
		return
	}
	alpha := n.cfg.EstimateAlpha
	for i := range counts {
		rate := float64(counts[i]-oldest.counts[i]) / elapsed.Seconds()
		if n.estInit {
			n.estRates[i] = alpha*rate + (1-alpha)*n.estRates[i]
		} else {
			n.estRates[i] = rate
		}
	}
	// The very first reading anchors at zero traffic; start the EWMA once a
	// full-width window exists.
	n.estInit = n.estInit || elapsed >= n.cfg.EstimateWindow
	n.lastEstAt = now
}

// gatherReports collects the replicas' arrival estimates and health weights
// for one solve: the local report plus one fetch per alive, non-draining
// peer. Unreachable peers are skipped — their share is simply absent this
// epoch.
func (n *Node) gatherReports() []Report {
	n.mu.Lock()
	self := Report{
		ID:       n.cfg.ID,
		Arrivals: append([]float64(nil), n.estRates...),
		Weights:  n.gw.HealthWeights(),
	}
	type target struct {
		id  int
		url string
	}
	var targets []target
	for i, url := range n.peers {
		if url != "" && n.alive[i] && !n.drainingPeer[i] {
			targets = append(targets, target{i, url})
		}
	}
	n.mu.Unlock()

	reports := make([]Report, len(targets)+1)
	reports[0] = self
	var wg sync.WaitGroup
	for k, t := range targets {
		wg.Add(1)
		go func(k int, t target) {
			defer wg.Done()
			if !n.linkUp(t.id) {
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.SolveEvery/2+50*time.Millisecond)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.url+"/fleet/report", nil)
			if err != nil {
				return
			}
			resp, err := n.client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(io.LimitReader(resp.Body, MaxMessage+1))
			if err != nil || resp.StatusCode != http.StatusOK {
				return
			}
			if rep, err := DecodeReport(body); err == nil {
				reports[k+1] = rep
				reports[k+1].ID = t.id
			}
		}(k, t)
	}
	wg.Wait()
	out := reports[:0]
	for _, r := range reports {
		if r.Arrivals != nil || r.ID == n.cfg.ID {
			out = append(out, r)
		}
	}
	return out
}

// solveAndDistribute is one leader supervision epoch: gather reports,
// aggregate the arrival estimates into the game's user weights, fold the
// fleet-wide health view into machine capacities, run the autoscaler, solve,
// and push the fenced table to every replica. A 409 carrying a higher epoch
// means this node has been deposed; it steps down immediately.
func (n *Node) solveAndDistribute() {
	n.solveMu.Lock()
	defer n.solveMu.Unlock()

	n.mu.Lock()
	if n.leader != n.cfg.ID || !n.wasLeader || n.draining || !n.quorumOK {
		// Not (or no longer) an acting leader with a quorum behind it:
		// minority-side nodes serve their last table, they never distribute.
		n.mu.Unlock()
		return
	}
	epoch := n.leadEpoch
	active := append([]bool(nil), n.active...)
	n.mu.Unlock()

	reports := n.gatherReports()

	// Aggregate per-user arrivals: the fleet-wide rate for user i is the sum
	// of the replicas' estimated shares. Before traffic flows (estimates
	// near zero) the nominal rates stand in; once live, a small per-user
	// floor keeps a silent user in the game rather than dividing by zero.
	m := len(n.cfg.Arrivals)
	agg := make([]float64, m)
	for _, r := range reports {
		for i := 0; i < m && i < len(r.Arrivals); i++ {
			agg[i] += r.Arrivals[i]
		}
	}
	nominalTotal := sum(n.cfg.Arrivals)
	if sum(agg) < 0.05*nominalTotal {
		copy(agg, n.cfg.Arrivals)
	} else {
		for i := range agg {
			if floor := 0.02 * n.cfg.Arrivals[i]; agg[i] < floor {
				agg[i] = floor
			}
		}
	}

	// Second-stage smoothing across supervision epochs: the replica-side
	// estimates are still sample noise over a ~1s window, and the Nash
	// split's concentration on fast machines is nonlinear in load, so
	// solving each epoch's raw aggregate would bias routing toward them.
	n.mu.Lock()
	if n.aggSmooth == nil || len(n.aggSmooth) != m {
		n.aggSmooth = append([]float64(nil), agg...)
	} else {
		alpha := n.cfg.EstimateAlpha
		for i := range agg {
			n.aggSmooth[i] = alpha*agg[i] + (1-alpha)*n.aggSmooth[i]
		}
	}
	agg = append(agg[:0], n.aggSmooth...)
	n.mu.Unlock()

	// Fleet-wide machine weights: the element-wise minimum across replicas —
	// a machine any gateway has breaker-opened is treated as reduced for the
	// whole fleet (conservative: the shared backend is likely down for all).
	weights := make([]float64, len(n.cfg.Machines))
	for j := range weights {
		weights[j] = 1
	}
	for _, r := range reports {
		for j := 0; j < len(weights) && j < len(r.Weights); j++ {
			if r.Weights[j] < weights[j] {
				weights[j] = r.Weights[j]
			}
		}
	}

	// Elastic capacity: sustained low utilization drains the smallest active
	// machine; sustained high utilization activates the largest standby.
	offered := sum(agg)
	rateEff := make([]float64, len(n.cfg.Machines))
	for j, mach := range n.cfg.Machines {
		rateEff[j] = mach.Rate * weights[j]
	}
	if n.cfg.Autoscale.Enabled {
		u := utilization(active, rateEff, offered)
		as := n.cfg.Autoscale.withDefaults()
		n.mu.Lock()
		switch {
		case u < as.Low:
			n.lowStreak++
			n.highStreak = 0
		case u > as.High:
			n.highStreak++
			n.lowStreak = 0
		default:
			n.lowStreak, n.highStreak = 0, 0
		}
		d := decideScale(n.cfg.Autoscale, n.lowStreak, n.highStreak, active, rateEff, offered)
		if d.drain >= 0 {
			active[d.drain] = false
			n.lowStreak, n.highStreak = 0, 0
		}
		if d.activate >= 0 {
			active[d.activate] = true
			n.lowStreak, n.highStreak = 0, 0
		}
		n.mu.Unlock()
	}

	st, err := n.gw.SolveTable(agg, weights, active)
	if err != nil {
		n.solveFail.Add(1)
		return // infeasible this epoch; replicas keep their last table
	}

	n.mu.Lock()
	peers := append([]string(nil), n.peers...)
	alive := append([]bool(nil), n.alive...)
	n.mu.Unlock()
	n.solves.Add(1)

	// An epoch that re-derives the exact table already distributed in this
	// reign is a no-op for every replica: skip the version bump and the
	// fleet push instead of churning fences. Shedding epochs always go out
	// (replicas size degraded-mode buckets from the fresh offered rates),
	// as does any change in the reachable-replica set (a recovered peer
	// needs its table now, not at the next content change); the anti-entropy
	// clock re-pushes even an unchanged table every few epochs.
	healthy := st.AdmitFrac <= 0 || st.AdmitFrac >= 1
	unchanged := healthy && epoch == n.lastDistEpoch &&
		st.AdmitFrac == n.lastAdmitFrac && st.Profile.Equal(n.lastProfile) &&
		boolsEqual(active, n.lastActive) && boolsEqual(alive, n.lastAlive)
	if unchanged && time.Since(n.lastDistAt) < antiEntropyEvery*n.cfg.SolveEvery {
		n.distSkips.Add(1)
		return
	}
	n.lastDistEpoch = epoch
	n.lastProfile = st.Profile
	n.lastActive = append(n.lastActive[:0], active...)
	n.lastAlive = append(n.lastAlive[:0], alive...)
	n.lastAdmitFrac = st.AdmitFrac
	n.lastDistAt = time.Now()

	n.mu.Lock()
	if !n.quorumOK || !n.wasLeader {
		// Quorum fell (or a deposition landed) between the solve's start
		// and now: releasing this table would be a minority distribution.
		n.mu.Unlock()
		return
	}
	n.leadVersion++
	version := n.leadVersion
	// The release decision is made here, under the same lock that orders
	// quorum transitions, so the audit trace can never show a distribute
	// after a quorum loss.
	n.traceLocked(audit.Distribute, epoch, epoch, version)
	n.mu.Unlock()

	machines := make([]Machine, len(n.cfg.Machines))
	for j, mach := range n.cfg.Machines {
		mach.Active = active[j]
		machines[j] = mach
	}
	offeredBy := make(map[int]float64, len(reports))
	for _, r := range reports {
		offeredBy[r.ID] = sum(r.Arrivals)
	}

	// Install locally first: if even our own gateway fences us out, a newer
	// reign exists and stepping down beats spraying stale tables.
	st.Epoch, st.Version, st.OfferedRate = epoch, version, offeredBy[n.cfg.ID]
	err = n.installAndCommit(st, n.cfg.ID)
	if errors.Is(err, serve.ErrStaleTable) {
		n.stepDown(0)
		return
	}
	if err != nil {
		return
	}

	t := Table{
		Epoch: epoch, Version: version, Leader: n.cfg.ID,
		Machines: machines, Arrivals: agg, AdmitFrac: st.AdmitFrac,
		Profile: st.Profile,
	}
	for i, url := range peers {
		if url == "" || !alive[i] || !n.linkUp(i) {
			continue
		}
		t.OfferedRate = offeredBy[i]
		if deposedBy, ok := n.pushTable(url, t); ok && deposedBy > epoch {
			n.stepDown(deposedBy)
			return
		}
	}
}

// pushTable POSTs one table to one replica. The second return is true when
// the replica answered 409 (fenced out); the first is the epoch it reported.
func (n *Node) pushTable(url string, t Table) (uint64, bool) {
	data, err := EncodeTable(t)
	if err != nil {
		return 0, false
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.SolveEvery/2+50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/fleet/table", bytes.NewReader(data))
	if err != nil {
		return 0, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, MaxMessage+1))
	if resp.StatusCode == http.StatusConflict {
		var cur struct {
			Epoch   uint64 `json:"epoch"`
			Version uint64 `json:"version"`
		}
		_ = json.Unmarshal(body, &cur)
		return cur.Epoch, true
	}
	return 0, false
}

// stepDown abandons leadership after meeting a newer reign or losing the
// quorum behind this one.
func (n *Node) stepDown(newerEpoch uint64) {
	n.mu.Lock()
	if newerEpoch > n.maxEpoch {
		n.maxEpoch = newerEpoch
	}
	was := n.wasLeader
	gen := n.leadEpoch
	n.leader = -1
	n.wasLeader = false
	if was {
		n.traceLocked(audit.LeaderStepDown, gen, 0, 0)
	}
	n.mu.Unlock()
	if was {
		n.persist()
	}
}

// installAndCommit pushes one table through the gateway fence and, on
// acceptance, records it in the replica state, the audit trace and the
// durable snapshot. installMu serializes concurrent installs (leader-local
// and handler-side) so the committed order is the fence's accept order.
func (n *Node) installAndCommit(st serve.Table, leader int) error {
	n.installMu.Lock()
	err := n.gw.InstallTable(st)
	if err != nil {
		n.installMu.Unlock()
		return err
	}
	n.mu.Lock()
	n.epoch, n.version = st.Epoch, st.Version
	copy(n.active, st.Active)
	n.leader = leader
	if st.Epoch > n.maxEpoch {
		n.maxEpoch = st.Epoch
	}
	n.lastTable = st
	n.traceLocked(audit.Install, st.Epoch, st.Epoch, st.Version)
	n.mu.Unlock()
	n.installMu.Unlock()
	n.persist()
	return nil
}

// persist writes the control-plane snapshot through the WAL (no-op without
// a durable dir). Called wherever forgetting state across a crash would
// break an invariant: after grants (a grant is a promise), elections,
// installs and step-downs.
func (n *Node) persist() {
	if n.wal == nil {
		return
	}
	n.mu.Lock()
	s := Snapshot{
		Gen:      n.maxEpoch,
		GrantGen: n.grantGen,
		Epoch:    n.epoch,
		Version:  n.version,
		Leader:   n.leader,
		Active:   append([]bool(nil), n.active...),
	}
	if n.estInit {
		s.EstRates = append([]float64(nil), n.estRates...)
	}
	if n.aggSmooth != nil {
		s.AggSmooth = append([]float64(nil), n.aggSmooth...)
	}
	if n.lastTable.Profile != nil {
		// The profile and Active slice are immutable once installed, so
		// sharing them outside the lock is safe.
		s.Profile = n.lastTable.Profile
		s.AdmitFrac = n.lastTable.AdmitFrac
		s.OfferedRate = n.lastTable.OfferedRate
	}
	n.mu.Unlock()
	_ = n.wal.Save(s)
}

// renderMetrics appends the fleet control-plane gauges to the gateway's
// Prometheus /metrics exposition (the ExtraMetrics hook).
func (n *Node) renderMetrics(b *strings.Builder) {
	n.mu.Lock()
	leader := n.leader
	epoch := n.epoch
	gen := n.maxEpoch
	if n.grantGen > gen {
		gen = n.grantGen
	}
	quorumOK := 0
	if n.quorumOK {
		quorumOK = 1
	}
	n.mu.Unlock()
	w := func(format string, args ...any) { fmt.Fprintf(b, format, args...) }
	w("# HELP fleet_leader_id Believed leader's node ID (-1 while unknown).\n")
	w("# TYPE fleet_leader_id gauge\n")
	w("fleet_leader_id %d\n", leader)
	w("# HELP fleet_generation Highest leadership generation seen or granted.\n")
	w("# TYPE fleet_generation gauge\n")
	w("fleet_generation %d\n", gen)
	w("# HELP fleet_table_epoch Epoch of the installed routing table.\n")
	w("# TYPE fleet_table_epoch gauge\n")
	w("fleet_table_epoch %d\n", epoch)
	w("# HELP fleet_table_skips Led supervision epochs whose re-solve matched the distributed table.\n")
	w("# TYPE fleet_table_skips counter\n")
	w("fleet_table_skips %d\n", n.distSkips.Load())
	w("# HELP fleet_solve_failures Led supervision epochs whose solve failed, so replicas kept their last table.\n")
	w("# TYPE fleet_solve_failures counter\n")
	w("fleet_solve_failures %d\n", n.solveFail.Load())
	w("# HELP fleet_elections Leadership assumptions by this node.\n")
	w("# TYPE fleet_elections counter\n")
	w("fleet_elections %d\n", n.elections.Load())
	w("# HELP fleet_quorum_ok Whether this node currently heartbeats a strict majority (1) or is in degraded minority mode (0).\n")
	w("# TYPE fleet_quorum_ok gauge\n")
	w("fleet_quorum_ok %d\n", quorumOK)
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
