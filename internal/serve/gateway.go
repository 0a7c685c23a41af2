package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nashlb/internal/dist"
	"nashlb/internal/estimate"
	"nashlb/internal/game"
	"nashlb/internal/online"
	"nashlb/internal/rng"
)

// GatewayConfig describes the nashgate serving gateway.
type GatewayConfig struct {
	// Backends holds the base URLs of the worker nodes, one per computer.
	Backends []string
	// Rates holds the backends' service rates mu_j (known to the users, as
	// in the paper).
	Rates []float64
	// Arrivals holds the users' nominal arrival rates phi_i; they size the
	// game whose equilibrium routes the traffic.
	Arrivals []float64
	// Profile is the initial routing table. Nil routes by the proportional
	// (PS) profile; callers wanting equilibrium routing from the first
	// request pass the solved NASH profile.
	Profile game.Profile
	// Seed roots the per-user routing streams (reproducible splits).
	Seed uint64

	// FillRate and Burst configure token-bucket admission (requests/second
	// and burst size); non-positive values disable the bucket.
	FillRate float64
	Burst    float64

	// UpdateEvery turns on the online balancer: every complete probe sweep
	// (see ProbeEvery) feeds it the backends' queue depths, and every
	// UpdateEvery-th sweep one user, round-robin, plays a best response (the
	// paper's serialized discipline). Zero, the default, leaves it off
	// (static routing between health re-solves). A positive value needs
	// ProbeEvery; a managed gateway (OnWeights set) builds no balancer.
	UpdateEvery int
	// Alpha is the EWMA weight for queue-depth observations (default 0.2).
	Alpha float64

	// Timeout bounds each gateway→backend attempt (default 5s).
	Timeout time.Duration
	// Retries is the number of re-attempts after a transport failure
	// (default 2); retry delays come from dist.Backoff, and the count is
	// additionally capped so the backoff sleeps fit one Timeout
	// (dist.Backoff.AttemptsFor).
	Retries int
	// RetryBase and RetryMax shape the backoff schedule (defaults 2ms and
	// 250ms, the dist defaults, when zero).
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetryBudget caps retry amplification: every first attempt earns this
	// many retry tokens and every retry spends one, so during an outage
	// retries are bounded to this fraction of the request rate instead of
	// multiplying the overload. Default 0.1; negative disables the budget
	// (retries limited only by Retries).
	RetryBudget float64

	// ProbeEvery is the period of the gateway's one control loop and
	// enables the backend health layer: every tick each backend is actively
	// probed with a status frame, probe and request outcomes feed a
	// per-backend circuit breaker, and breaker trips/recoveries re-solve the
	// Nash game over the surviving machine set (degraded-mode load shedding
	// included). A sweep every backend answered also refreshes the
	// saturation estimate and feeds the online balancer (UpdateEvery). Zero
	// disables the layer and the loop entirely.
	ProbeEvery time.Duration
	// ProbeTimeout bounds each probe attempt (default min(ProbeEvery, 500ms)).
	ProbeTimeout time.Duration
	// Breaker parameterizes the per-backend circuit breakers (see
	// BreakerConfig for the defaults).
	Breaker BreakerConfig
	// RampSteps is the number of health epochs over which a recovered
	// backend's capacity is re-admitted (weight k/RampSteps per epoch,
	// default 3) — full recovery therefore takes RampSteps re-equilibration
	// epochs after the half-open trial succeeds.
	RampSteps int
	// DegradedRho is the utilization ceiling enforced by degraded-mode
	// admission: when the offered load is infeasible for the surviving
	// capacity, the gateway admits only DegradedRho × capacity requests/s
	// and sheds the rest with 503 + Retry-After. It must lie in (0, 0.95),
	// below the saturation threshold at which shedding starts; other
	// values fall back to the default 0.9.
	DegradedRho float64

	// MaxIdleConnsPerHost caps each backend's idle work-hop connections,
	// which carry jobs and probes one request at a time each,
	// so requests reuse warm connections instead of paying a dial and
	// upgrade per request (reuse counters are exported on /metrics).
	// Default 512.
	MaxIdleConnsPerHost int

	// OnWeights puts the gateway in managed mode: instead of re-solving the
	// game locally when the health layer's effective machine set changes,
	// the gateway reports the new weight vector to this callback and waits
	// for the control plane to InstallTable a fresh equilibrium. Degraded-
	// mode shedding decisions move to the control plane too (Table.AdmitFrac).
	// The callback runs on the control loop goroutine and must not block.
	// Managed gateways keep the local fallback of falling back to live
	// backends per request, so they stay safe on a stale table.
	OnWeights func(weights []float64)

	// ExtraMetrics, when non-nil, appends additional Prometheus-style
	// exposition to /metrics after the gateway's own sections — the hook
	// the fleet control plane hangs its fleet_* gauges on. Called once per
	// scrape; it must be safe for concurrent use.
	ExtraMetrics func(*strings.Builder)

	// Addr is the listen address ("127.0.0.1:0" when empty).
	Addr string
}

// routeTable is an immutable, fully pre-resolved routing state, swapped
// atomically by the control loop. Resolution happens once at table
// install, never per request: users with identical strategy rows — the
// common case, since equilibrium rows depend only on a user's class — are
// mapped to one shared class (classOf), each class owns one O(1) alias
// sampler and one precomputed fallback order (its positive-weight backends
// by descending weight), so the request path is two array loads and a Pick.
// A table over n_classes distinct rows builds n_classes alias structures,
// not n_users. Sharing is safe: an Alias is immutable after construction
// and Pick draws all randomness from the caller's per-user stream.
type routeTable struct {
	profile game.Profile
	// classOf maps each user to its class index.
	classOf []int32
	// samplers and fallback are per class: the alias sampler over the
	// class's strategy row, and the row's positive-weight backends in
	// descending weight order (the steer-around-dead-machines path).
	samplers []*rng.Alias
	fallback [][]int32
	// classes is the number of distinct strategy rows (== alias tables
	// actually built); exposed on /routing as alias_classes.
	classes int
}

func newRouteTable(p game.Profile, n int) (*routeTable, error) {
	profile := p.Clone()
	rows, classOf := game.DistinctRows(profile)
	t := &routeTable{profile: profile, classOf: classOf, classes: len(rows)}
	weights := make([]float64, n)
	for c, row := range rows {
		if err := game.CheckStrategy(row, n); err != nil {
			return nil, fmt.Errorf("serve: strategy row %d: %w", c, err)
		}
		// CheckStrategy tolerates fractions down to -FeasibilityTol;
		// clamp those to zero weight for the sampler.
		for j, f := range row {
			weights[j] = math.Max(f, 0)
		}
		a, err := rng.NewAlias(weights)
		if err != nil {
			return nil, fmt.Errorf("serve: strategy row %d: %w", c, err)
		}
		t.samplers = append(t.samplers, a)
		t.fallback = append(t.fallback, weightOrder(row, true))
	}
	return t, nil
}

// weightOrder returns backend indices ordered by descending weight, stably
// (ties keep index order, matching the old first-max scan). With
// positiveOnly, zero-weight backends are dropped — the per-class fallback
// list; the gateway's rate order keeps every machine.
func weightOrder(weights []float64, positiveOnly bool) []int32 {
	ord := make([]int32, 0, len(weights))
	for j, f := range weights {
		if !positiveOnly || f > 0 {
			ord = append(ord, int32(j))
		}
	}
	sort.SliceStable(ord, func(a, b int) bool {
		return weights[ord[a]] > weights[ord[b]]
	})
	return ord
}

// Gateway is the serving gateway: it admits requests, routes each one to a
// backend by weighted sampling over the current strategy profile, forwards
// it over the binary work hop with retries. With the health layer enabled it
// circuit-breaks dead backends, re-solves the Nash game over the survivors,
// sheds infeasible load, folds recovered machines back in on a capacity ramp,
// and (optionally) re-equilibrates the profile from probed queue depths
// while traffic flows.
type Gateway struct {
	cfg GatewayConfig

	table   atomic.Pointer[routeTable]
	userMu  []sync.Mutex
	userRng []*rng.Stream
	bucket  *ShardedTokenBucket
	met     *gatewayMetrics
	pools   []*workPool   // per backend: upgraded work-hop connections
	frameID atomic.Uint64 // the last request ID sent on the work hop
	// rateOrder holds all backends by descending service rate — the
	// precomputed last-resort fallback when a user's whole row is dead.
	rateOrder []int32
	scratch   sync.Pool // *fwdScratch
	policy    func(now float64, queueLens []int, current game.Profile) game.Profile
	sys       *game.System
	est       estimate.RunQueue
	smooth    []*estimate.Smoother
	satur     atomic.Bool

	health      *healthTracker
	budget      *retryBudget
	shed        atomic.Pointer[shedConfig]
	healthKick  chan struct{}
	lastWeights []float64 // controlLoop-owned: weights at the last install

	// Control-plane state: drained backends are administratively out of
	// rotation (distinct from breaker-dead), draining refuses new admissions
	// while in-flight work finishes, and the fence orders InstallTable
	// against superseded leaders. ctrlDegraded marks a degraded control
	// plane (fleet quorum lost): the gateway keeps serving its last table
	// but no fresh equilibria are coming until the fleet heals. installMu
	// serializes every swap of table, shed and drained (installLocked).
	drained      []atomic.Bool
	draining     atomic.Bool
	ctrlDegraded atomic.Bool
	fence        dist.Fence
	installMu    sync.Mutex

	ctx    context.Context
	cancel context.CancelFunc
	ln     net.Listener
	srv    *http.Server
	quit   chan struct{}
	wg     sync.WaitGroup
}

// NewGateway validates the configuration and returns an unstarted gateway.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	n, m := len(cfg.Backends), len(cfg.Arrivals)
	if n == 0 {
		return nil, errors.New("serve: gateway needs at least one backend")
	}
	if len(cfg.Rates) != n {
		return nil, fmt.Errorf("serve: %d rates for %d backends", len(cfg.Rates), n)
	}
	for j, mu := range cfg.Rates {
		if !(mu > 0) {
			return nil, fmt.Errorf("serve: invalid rate mu[%d]=%g", j, mu)
		}
	}
	if m == 0 {
		return nil, errors.New("serve: gateway needs at least one user")
	}
	for i, phi := range cfg.Arrivals {
		if !(phi > 0) {
			return nil, fmt.Errorf("serve: invalid arrival phi[%d]=%g", i, phi)
		}
	}
	sys := &game.System{Rates: cfg.Rates, Arrivals: cfg.Arrivals}
	if cfg.Profile == nil {
		cfg.Profile = game.ProportionalProfile(sys)
	}
	if len(cfg.Profile) != m {
		return nil, fmt.Errorf("serve: profile has %d rows for %d users", len(cfg.Profile), m)
	}
	if cfg.UpdateEvery < 0 {
		return nil, fmt.Errorf("serve: negative UpdateEvery %d", cfg.UpdateEvery)
	}
	if cfg.UpdateEvery > 0 && cfg.ProbeEvery <= 0 {
		return nil, errors.New("serve: UpdateEvery needs ProbeEvery: the balancer feeds on the probe sweep")
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 0.2
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 0.1
	}
	if cfg.ProbeEvery > 0 {
		if cfg.ProbeTimeout <= 0 {
			cfg.ProbeTimeout = 500 * time.Millisecond
			if cfg.ProbeEvery < cfg.ProbeTimeout {
				cfg.ProbeTimeout = cfg.ProbeEvery
			}
		}
		if cfg.RampSteps < 1 {
			cfg.RampSteps = 3
		}
	}
	// From the saturation threshold up, a shedding table could admit more
	// than the offered load (AdmitFrac > 1).
	if cfg.DegradedRho <= 0 || cfg.DegradedRho >= saturationRho {
		cfg.DegradedRho = 0.9
	}
	if cfg.MaxIdleConnsPerHost <= 0 {
		cfg.MaxIdleConnsPerHost = 512
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}

	ctx, cancel := context.WithCancel(context.Background())
	g := &Gateway{
		cfg:        cfg,
		sys:        sys,
		userMu:     make([]sync.Mutex, m),
		userRng:    make([]*rng.Stream, m),
		bucket:     NewShardedTokenBucket(cfg.FillRate, cfg.Burst),
		met:        newGatewayMetrics(n, m),
		est:        estimate.RunQueue{Rates: append([]float64(nil), cfg.Rates...)},
		smooth:     make([]*estimate.Smoother, n),
		drained:    make([]atomic.Bool, n),
		budget:     newRetryBudget(cfg.RetryBudget),
		healthKick: make(chan struct{}, 1),
		ctx:        ctx,
		cancel:     cancel,
		quit:       make(chan struct{}),
		pools:      make([]*workPool, n),
		rateOrder:  weightOrder(cfg.Rates, false),
	}
	// One work pool per backend: connection reuse never competes across
	// backends. Fresh dials are counted where they happen — off the request
	// hot path — and /metrics derives warm reuses as attempts minus dials,
	// so reuse accounting costs each request one atomic add.
	for j := 0; j < n; j++ {
		target, err := parseWorkTarget(cfg.Backends[j])
		if err != nil {
			cancel()
			return nil, err
		}
		g.pools[j] = &workPool{target: target, maxIdle: cfg.MaxIdleConnsPerHost, opened: &g.met.connOpened[j]}
	}
	g.scratch.New = func() any { return &fwdScratch{} }
	src := rng.NewSource(cfg.Seed)
	for i := 0; i < m; i++ {
		g.userRng[i] = src.Stream(fmt.Sprintf("route/%d", i))
	}
	for j := 0; j < n; j++ {
		s, err := estimate.NewSmoother(cfg.Alpha)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("serve: %w", err)
		}
		g.smooth[j] = s
	}
	table, err := newRouteTable(cfg.Profile, n)
	if err != nil {
		cancel()
		return nil, err
	}
	g.table.Store(table)

	if cfg.UpdateEvery > 0 && cfg.OnWeights == nil {
		bal, err := online.New(cfg.Rates, cfg.Arrivals, cfg.Alpha)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("serve: %w", err)
		}
		g.policy = bal.Policy(cfg.ProbeEvery.Seconds(), cfg.UpdateEvery).Do
	}
	if cfg.ProbeEvery > 0 {
		g.health = newHealthTracker(n, cfg.Breaker, cfg.RampSteps)
		g.lastWeights = make([]float64, n)
		for j := range g.lastWeights {
			g.lastWeights[j] = 1
		}
	}
	return g, nil
}

// Start binds the listener, serves HTTP, and launches the control loop when
// the health layer is on.
func (g *Gateway) Start() error {
	if g.ln != nil {
		return errors.New("serve: gateway already started")
	}
	ln, err := net.Listen("tcp", g.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: gateway listen: %w", err)
	}
	g.ln = ln

	mux := http.NewServeMux()
	mux.HandleFunc("/submit", g.handleSubmit)
	mux.HandleFunc("/metrics", g.handleMetrics)
	mux.HandleFunc("/routing", g.handleRouting)
	mux.HandleFunc("/backends", g.handleBackends)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	g.srv = &http.Server{Handler: mux}

	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		_ = g.srv.Serve(ln)
	}()

	if g.health != nil {
		g.wg.Add(1)
		go g.controlLoop()
	}
	return nil
}

// Addr returns the bound address (empty before Start).
func (g *Gateway) Addr() string {
	if g.ln == nil {
		return ""
	}
	return g.ln.Addr().String()
}

// URL returns the gateway's base URL (empty before Start).
func (g *Gateway) URL() string {
	if g.ln == nil {
		return ""
	}
	return "http://" + g.Addr()
}

// Profile returns a copy of the currently installed routing profile.
func (g *Gateway) Profile() game.Profile {
	return g.table.Load().profile.Clone()
}

// Metrics returns a consistent snapshot of the gateway's counters, extended
// with the health layer's per-backend state when enabled.
func (g *Gateway) Metrics() *Snapshot {
	s := g.met.snapshot()
	s.Admission = g.bucket.Stats()
	if g.health != nil {
		s.BreakerStates = make([]string, len(g.health.brs))
		for j, br := range g.health.brs {
			s.BreakerStates[j] = br.State().String()
		}
		s.Weights = g.health.weights()
	}
	s.AdmitFraction, s.Degraded = g.admission()
	return s
}

// Saturated reports whether the last complete probe sweep estimated every
// backend's utilization at or above saturationRho (0.95), the
// reject-on-saturation condition.
func (g *Gateway) Saturated() bool { return g.satur.Load() }

// Degraded reports whether degraded-mode admission shedding is active.
func (g *Gateway) Degraded() bool { return g.shed.Load() != nil }

// admission returns the degraded-mode admitted fraction of the offered load
// (1 when not degraded) and whether shedding is active.
func (g *Gateway) admission() (frac float64, degraded bool) {
	if sh := g.shed.Load(); sh != nil {
		return sh.AdmitFrac, true
	}
	return 1, false
}

// SetControlDegraded flags (or clears) control-plane degradation: the fleet
// node behind this gateway lost (or regained) its quorum. The gateway keeps
// serving its last-installed table either way; the flag is surfaced on
// /backends so operators can tell "stale by partition" from healthy.
func (g *Gateway) SetControlDegraded(v bool) { g.ctrlDegraded.Store(v) }

// ControlDegraded reports the control-plane degradation flag.
func (g *Gateway) ControlDegraded() bool { return g.ctrlDegraded.Load() }

// Close stops the control loop and the HTTP server. The gateway context is
// cancelled first so a probe sweep in flight aborts promptly instead of
// holding Close for a full probe timeout, and the loop installs no routing
// table and touches no metrics once Close has returned.
func (g *Gateway) Close() error {
	if g.srv == nil {
		return nil
	}
	close(g.quit)
	g.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := g.srv.Shutdown(ctx)
	if err != nil {
		err = errors.Join(err, g.srv.Close())
	}
	g.wg.Wait()
	g.closeConns()
	g.srv = nil
	return err
}

// Kill abruptly closes the gateway: the listener and every open connection
// drop immediately, in-flight requests included — the chaos-harness model of
// a crashed gateway process (compare Close, which drains gracefully).
func (g *Gateway) Kill() error {
	if g.srv == nil {
		return nil
	}
	select {
	case <-g.quit:
	default:
		close(g.quit)
	}
	g.cancel()
	err := g.srv.Close()
	g.wg.Wait()
	g.closeConns()
	g.srv = nil
	return err
}

// closeConns drops every backend's idle connections.
func (g *Gateway) closeConns() {
	for _, p := range g.pools {
		p.close()
	}
}

// closing reports whether Close has begun (loops must not install state).
func (g *Gateway) closing() bool {
	select {
	case <-g.quit:
		return true
	default:
		return false
	}
}

// SubmitResponse is the wire form of a served request.
type SubmitResponse struct {
	// User and Backend identify who asked and who served.
	User    int `json:"user"`
	Backend int `json:"backend"`
	// ServiceSeconds is the exponential work the backend performed;
	// ElapsedSeconds is the gateway-side response time (queueing included).
	ServiceSeconds float64 `json:"service_s"`
	ElapsedSeconds float64 `json:"elapsed_s"`
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	user, err := g.userID(r)
	if err != nil {
		g.met.rejectedUser.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Admission: a draining gateway refuses all new work (graceful shutdown
	// or fleet deregistration — callers should fail over to a peer); the
	// token bucket shapes the accepted rate; degraded-mode shedding caps the
	// admitted rate at what the surviving capacity can feasibly carry; the
	// saturation flag refuses work when the estimated load leaves no backend
	// with spare capacity (estimated rho_j >= saturationRho, 0.95, everywhere).
	if g.draining.Load() {
		g.met.rejectedDrain.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "gateway draining", http.StatusServiceUnavailable)
		return
	}
	if !g.bucket.Admit() {
		g.met.rejectedRate.Add(1)
		http.Error(w, "rate limited", http.StatusTooManyRequests)
		return
	}
	if sh := g.shed.Load(); sh != nil && !sh.Allow() {
		g.met.shed.Add(1)
		w.Header().Set("Retry-After", sh.RetryAfter)
		http.Error(w, "degraded: load shed", http.StatusServiceUnavailable)
		return
	}
	if g.satur.Load() {
		g.met.rejectedSat.Add(1)
		http.Error(w, "all backends saturated", http.StatusServiceUnavailable)
		return
	}
	g.met.admitted.Add(1)
	g.met.userAdmitted[user].Add(1)

	backend, ok := g.pickBackend(user)
	if !ok {
		g.met.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "no live backend", http.StatusServiceUnavailable)
		return
	}

	start := time.Now()
	reply, err := g.forward(r.Context(), backend)
	elapsed := time.Since(start)
	switch {
	case err != nil:
		g.met.backendErrors[backend].Add(1)
		http.Error(w, fmt.Sprintf("backend %d: %v", backend, err), http.StatusBadGateway)
		return
	case reply.Status == statusQueueFull, reply.Status == statusClosing:
		g.met.backendRejects[backend].Add(1)
		http.Error(w, fmt.Sprintf("backend %d %s", backend, reply.Status), http.StatusServiceUnavailable)
		return
	case reply.Status != statusOK:
		g.met.backendErrors[backend].Add(1)
		http.Error(w, fmt.Sprintf("backend %d %s", backend, reply.Status), http.StatusBadGateway)
		return
	}

	g.met.backendRequests[backend].Add(1)
	g.met.observe(user, elapsed.Seconds())

	// The response JSON is appended into pooled scratch, so the gateway's
	// own work around the forwarded job allocates nothing in the steady
	// state (TestForwardPathAllocs gates the pieces).
	sc := g.scratch.Get().(*fwdScratch)
	defer g.scratch.Put(sc)
	w.Header().Set("Content-Type", "application/json")
	sc.out = appendSubmitResponse(sc.out[:0], user, backend, reply.Value, elapsed.Seconds())
	_, _ = w.Write(sc.out)
}

// routable reports whether backend j may receive traffic: not drained by
// the control plane, and (when the health layer is live) not cut off by its
// breaker. Drained machines are administratively out of rotation even as a
// fallback — the control plane is emptying them for scale-down.
func (g *Gateway) routable(j int) bool {
	if g.drained[j].Load() {
		return false
	}
	return g.health == nil || g.health.allow(j)
}

// pickBackend samples the user's routing strategy and steers around
// unroutable machines (tripped breakers, control-plane drains): if the
// sampled backend is cut off (a table swap is in flight), the request falls
// back down the class's pre-resolved fallback order (highest routed weight
// first), then down the precomputed rate order (fastest machine first). The
// second return value is false only when no backend is routable at all.
// Everything on this path was resolved at table install: the per-request
// work is two array loads, one alias Pick, and the routable check.
func (g *Gateway) pickBackend(user int) (int, bool) {
	table := g.table.Load()
	c := table.classOf[user]
	g.userMu[user].Lock()
	backend := table.samplers[c].Pick(g.userRng[user])
	g.userMu[user].Unlock()
	if g.routable(backend) {
		return backend, true
	}
	for _, j := range table.fallback[c] {
		if int(j) != backend && g.routable(int(j)) {
			return int(j), true
		}
	}
	for _, j := range g.rateOrder {
		if g.routable(int(j)) {
			return int(j), true
		}
	}
	return -1, false
}

// userID extracts the requesting user from the X-User header or ?user=
// query parameter.
func (g *Gateway) userID(r *http.Request) (int, error) {
	raw := r.Header.Get("X-User")
	if raw == "" {
		raw = r.URL.Query().Get("user")
	}
	if raw == "" {
		return 0, errors.New("missing user id (X-User header or ?user=)")
	}
	user, err := strconv.Atoi(raw)
	if err != nil || user < 0 || user >= len(g.cfg.Arrivals) {
		return 0, fmt.Errorf("invalid user id %q (have %d users)", raw, len(g.cfg.Arrivals))
	}
	return user, nil
}

// reportHealth feeds one attempt outcome into the backend's breaker and, on
// a state change, wakes the control loop to re-equilibrate immediately
// instead of waiting out the probe period.
func (g *Gateway) reportHealth(backend int, ok bool, errText string) {
	if g.health == nil {
		return
	}
	if g.health.report(backend, ok, errText) {
		if g.health.brs[backend].State() == BreakerOpen {
			g.met.breakerOpens.Add(1)
		}
		select {
		case g.healthKick <- struct{}{}:
		default:
		}
	}
}

// forward performs the gateway→backend call with capped-exponential retry
// on transport failures (dist.Backoff): the retry count is the configured
// Retries capped by AttemptsFor(Timeout) — the shared horizon arithmetic
// also used by the health prober — and each retry must be granted by the
// retry budget, so an outage cannot amplify the offered load. Replies,
// including the backend's queue full, are returned to the caller without
// retry: the job may already have consumed queue space, and admission
// decisions are the caller's to surface. Every attempt outcome feeds the
// backend's breaker as a passive health signal.
//
// Each attempt is one frame exchange on the backend's work pool, under a
// deadline of min(ctx's deadline, now + Timeout); a dial, a refused
// upgrade, a timeout and a reply with the wrong ID are transport failures.
func (g *Gateway) forward(ctx context.Context, backend int) (workReply, error) {
	backoff := dist.Backoff{Base: g.cfg.RetryBase, Max: g.cfg.RetryMax}
	retries := g.cfg.Retries
	if lim := backoff.AttemptsFor(g.cfg.Timeout); retries > lim {
		retries = lim
	}
	g.budget.onRequest()
	var lastErr error
	attempts := 0
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			if !g.budget.tryRetry() {
				g.met.retryDenied.Add(1)
				break
			}
			select {
			case <-time.After(backoff.Next()):
			case <-ctx.Done():
				return workReply{}, ctx.Err()
			}
		}
		attempts++
		g.met.connAttempts[backend].Add(1)
		deadline := time.Now().Add(g.cfg.Timeout)
		if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
		reply, err := g.pools[backend].roundTrip(ctx, g.frameID.Add(1), kindJob, deadline)
		if err != nil {
			if ctx.Err() != nil {
				// Caller gone: no verdict on the backend.
				return workReply{}, ctx.Err()
			}
			g.reportHealth(backend, false, err.Error())
			lastErr = err
			continue
		}
		ok := healthyReply(reply.Status)
		errText := ""
		if !ok {
			errText = reply.Status.String()
		}
		g.reportHealth(backend, ok, errText)
		return reply, nil
	}
	return workReply{}, fmt.Errorf("after %d attempts: %w", attempts, lastErr)
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	g.met.render(&b)
	g.renderAdmission(&b)
	g.renderHealth(&b)
	if g.cfg.ExtraMetrics != nil {
		g.cfg.ExtraMetrics(&b)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = io.WriteString(w, b.String())
}

// renderAdmission appends the sharded token bucket's merged counters
// (nothing when admission is disabled).
func (g *Gateway) renderAdmission(b *strings.Builder) {
	if g.bucket == nil {
		return
	}
	st := g.bucket.Stats()
	w := func(format string, args ...any) { fmt.Fprintf(b, format, args...) }
	w("# HELP nashgate_admission_total Sharded-bucket admission outcomes.\n")
	w("# TYPE nashgate_admission_total counter\n")
	w("nashgate_admission_total{outcome=%q} %d\n", "admitted", st.Admitted)
	w("nashgate_admission_total{outcome=%q} %d\n", "denied", st.Denied)
	w("# HELP nashgate_admission_refills_total Reservoir chunk grants pulled by shards.\n")
	w("# TYPE nashgate_admission_refills_total counter\n")
	w("nashgate_admission_refills_total %d\n", st.Refills)
	w("# HELP nashgate_admission_cached_tokens Tokens currently cached across shards.\n")
	w("# TYPE nashgate_admission_cached_tokens gauge\n")
	w("nashgate_admission_cached_tokens %g\n", st.CachedTokens)
}

// renderHealth appends the health layer's Prometheus-style exposition:
// per-backend breaker state and effective weight, plus the degraded-mode
// admission gauge.
func (g *Gateway) renderHealth(b *strings.Builder) {
	if g.health == nil {
		return
	}
	w := func(format string, args ...any) { fmt.Fprintf(b, format, args...) }
	w("# HELP nashgate_backend_state Breaker state per backend (0 closed, 1 open, 2 half-open).\n")
	w("# TYPE nashgate_backend_state gauge\n")
	for j, br := range g.health.brs {
		var v int
		switch br.State() {
		case BreakerOpen:
			v = 1
		case BreakerHalfOpen:
			v = 2
		}
		w("nashgate_backend_state{backend=\"%d\"} %d\n", j, v)
	}
	w("# HELP nashgate_backend_weight Effective capacity weight per backend (0 = cut off, 1 = fully admitted).\n")
	w("# TYPE nashgate_backend_weight gauge\n")
	for j, wt := range g.health.weights() {
		w("nashgate_backend_weight{backend=\"%d\"} %g\n", j, wt)
	}
	w("# HELP nashgate_admit_fraction Degraded-mode admitted fraction of the offered load (1 = not degraded).\n")
	w("# TYPE nashgate_admit_fraction gauge\n")
	admit, _ := g.admission()
	w("nashgate_admit_fraction %g\n", admit)
}

// RoutingStatus is the wire form of /routing: the live strategy profile and
// the re-equilibration counters.
type RoutingStatus struct {
	Profile    game.Profile `json:"profile"`
	Rebalances int64        `json:"rebalances"`
	Polls      int64        `json:"polls"`
	Saturated  bool         `json:"saturated"`
	Degraded   bool         `json:"degraded"`
	// AliasClasses is the number of distinct strategy rows in the installed
	// table — the number of alias samplers actually built.
	AliasClasses int `json:"alias_classes"`
}

func (g *Gateway) handleRouting(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(RoutingStatus{
		Profile:      g.Profile(),
		Rebalances:   g.met.rebalances.Load(),
		Polls:        g.met.polls.Load(),
		Saturated:    g.satur.Load(),
		Degraded:     g.Degraded(),
		AliasClasses: g.table.Load().classes,
	})
}

// BackendStatus is one backend's row in the /backends debug view.
type BackendStatus struct {
	Backend int     `json:"backend"`
	URL     string  `json:"url"`
	Rate    float64 `json:"rate"`
	// State is the breaker position: closed, open or half-open (always
	// closed when the health layer is disabled).
	State string `json:"state"`
	// Weight is the effective capacity weight in [0, 1] (the recovery ramp).
	Weight float64 `json:"weight"`
	// ConsecutiveFailures and ErrorRate are the breaker's trip inputs.
	ConsecutiveFailures int     `json:"consecutive_failures"`
	ErrorRate           float64 `json:"error_rate"`
	// CooldownRemainingSeconds is how much longer an open breaker blocks
	// before granting its half-open trial (0 unless open and cooling).
	CooldownRemainingSeconds float64 `json:"cooldown_remaining_s"`
	// Drained marks a machine administratively removed from rotation by the
	// control plane (scale-down in progress), as opposed to breaker-dead.
	Drained bool `json:"drained"`
	// Opens counts breaker trips; Probes/ProbeFailures count active checks.
	Opens         int64  `json:"opens"`
	Probes        int64  `json:"probes"`
	ProbeFailures int64  `json:"probe_failures"`
	LastError     string `json:"last_error,omitempty"`
	QueueDepth    int64  `json:"queue_depth"`
}

// BackendsStatus is the wire form of /backends.
type BackendsStatus struct {
	Backends []BackendStatus `json:"backends"`
	// Degraded and AdmitFraction describe degraded-mode shedding.
	Degraded      bool    `json:"degraded"`
	AdmitFraction float64 `json:"admit_fraction"`
	// Reequilibrations counts health-driven routing-table installs;
	// TableInstalls counts control-plane tables applied via InstallTable.
	Reequilibrations int64 `json:"reequilibrations"`
	TableInstalls    int64 `json:"table_installs"`
	// TableEpoch and TableVersion identify the last installed control-plane
	// table (both 0 when the gateway has only ever routed locally).
	TableEpoch   uint64 `json:"table_epoch"`
	TableVersion uint64 `json:"table_version"`
	// Draining reports whether the gateway is refusing new admissions while
	// in-flight requests finish.
	Draining bool `json:"draining"`
	// FleetDegraded reports a degraded control plane: the fleet node behind
	// this gateway lost its quorum, so the routing table is the last
	// installed one and will not refresh until the fleet heals.
	FleetDegraded bool `json:"fleet_degraded"`
}

func (g *Gateway) handleBackends(w http.ResponseWriter, r *http.Request) {
	st := BackendsStatus{
		Backends:         make([]BackendStatus, len(g.cfg.Backends)),
		Reequilibrations: g.met.reequils.Load(),
		TableInstalls:    g.met.tableInstalls.Load(),
		Draining:         g.draining.Load(),
		FleetDegraded:    g.ctrlDegraded.Load(),
	}
	st.TableEpoch, st.TableVersion = g.fence.Current()
	st.AdmitFraction, st.Degraded = g.admission()
	var weights []float64
	if g.health != nil {
		weights = g.health.weights()
	}
	for j := range st.Backends {
		b := BackendStatus{
			Backend:    j,
			URL:        g.cfg.Backends[j],
			Rate:       g.cfg.Rates[j],
			State:      BreakerClosed.String(),
			Weight:     1,
			Drained:    g.drained[j].Load(),
			QueueDepth: g.met.queueDepth[j].Load(),
		}
		if g.health != nil {
			snap := g.health.brs[j].snapshot()
			b.State = snap.State.String()
			b.Weight = weights[j]
			b.ConsecutiveFailures = snap.Consecutive
			b.ErrorRate = snap.ErrorRate
			b.Opens = snap.Opens
			b.CooldownRemainingSeconds = snap.CooldownRemaining.Seconds()
			b.LastError = snap.LastErr
			g.health.mu.Lock()
			b.Probes = g.health.probes[j]
			b.ProbeFailures = g.health.probeFails[j]
			g.health.mu.Unlock()
		}
		st.Backends[j] = b
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}
