package serve

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"nashlb/internal/stats"
)

// Histogram shape for per-user response times: 100µs to 100s, ~10% relative
// resolution per bucket (log-bucketed, fixed memory).
const (
	histLo     = 1e-4
	histHi     = 100.0
	histGrowth = 1.1
)

// maxShards caps the response-time shard count (memory is
// shards × users × histogram, and merge cost on scrape grows with it).
const maxShards = 128

// metricShard is one stripe of the response-time accumulators: its own
// mutex plus per-user histogram and Welford moments, padded so adjacent
// shards never share a cache line. Each recording goroutine checks a shard
// out of a sync.Pool for the duration of one observation; because pools
// keep per-P free lists, a busy CPU is handed the same shard back over and
// over — per-CPU striping with hot caches and (on a loaded gateway) no
// cross-CPU contention, instead of every handler serializing on one global
// histogram mutex.
type metricShard struct {
	mu      sync.Mutex
	hists   []*stats.LogHistogram // per user, seconds
	moments []stats.Welford       // per user, seconds
	_       [64]byte
}

// gatewayMetrics aggregates the gateway's observability state: per-backend
// counters and gauges, admission outcomes, and per-user response-time
// histograms and moments sharded per-CPU and merged on scrape.
type gatewayMetrics struct {
	backendRequests []atomic.Int64 // forwarded and answered 200
	backendRejects  []atomic.Int64 // backend replied queue full or closing (503)
	backendErrors   []atomic.Int64 // failed replies, transport failures after retries
	queueDepth      []atomic.Int64 // jobs in system at the last probe or poll
	connOpened      []atomic.Int64 // fresh work-hop dials per backend
	connAttempts    []atomic.Int64 // forward attempts, probes and polls per backend
	userAdmitted    []atomic.Int64 // admitted requests per user (arrival estimation)
	admitted        atomic.Int64
	rejectedRate    atomic.Int64 // token bucket said no
	rejectedSat     atomic.Int64 // estimated rho_j >= 1 everywhere
	rejectedUser    atomic.Int64 // malformed/unknown user id
	rejectedDrain   atomic.Int64 // refused because the gateway is draining
	rebalances      atomic.Int64
	polls           atomic.Int64
	shed            atomic.Int64 // degraded-mode 503s (load shed)
	reequils        atomic.Int64 // health-driven routing installs
	tableInstalls   atomic.Int64 // control-plane routing tables installed
	breakerOpens    atomic.Int64 // breaker trips to open
	solveFailures   atomic.Int64 // re-solves that fell back to renormalizing
	retryDenied     atomic.Int64 // retries refused by the retry budget

	shards    []metricShard
	shardPool sync.Pool     // *metricShard, handed out with per-P affinity
	shardNext atomic.Uint32 // round-robin cursor for pool refills
	nUsers    int
}

// shardCount returns the number of response-time stripes. The pool hands
// out at most one per P, so GOMAXPROCS covers the steady state; the floor
// of 4 keeps the merge path honest on small machines, and maxShards bounds
// scrape cost on huge ones.
func shardCount() int {
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	if n > maxShards {
		n = maxShards
	}
	return n
}

func newGatewayMetrics(nBackends, nUsers int) *gatewayMetrics {
	m := &gatewayMetrics{
		backendRequests: make([]atomic.Int64, nBackends),
		backendRejects:  make([]atomic.Int64, nBackends),
		backendErrors:   make([]atomic.Int64, nBackends),
		queueDepth:      make([]atomic.Int64, nBackends),
		connOpened:      make([]atomic.Int64, nBackends),
		connAttempts:    make([]atomic.Int64, nBackends),
		userAdmitted:    make([]atomic.Int64, nUsers),
		shards:          make([]metricShard, shardCount()),
		nUsers:          nUsers,
	}
	for s := range m.shards {
		sh := &m.shards[s]
		sh.hists = make([]*stats.LogHistogram, nUsers)
		sh.moments = make([]stats.Welford, nUsers)
		for i := range sh.hists {
			sh.hists[i] = stats.NewLogHistogram(histLo, histHi, histGrowth)
		}
	}
	// Refill from the fixed shard array round-robin: a pool drained by the
	// GC (or racing getters) only ever re-hands out existing shards, so the
	// merge path never has to chase dynamically created state. Two P's can
	// transiently share a shard; the shard mutex keeps that correct.
	m.shardPool.New = func() any {
		idx := m.shardNext.Add(1) - 1
		return &m.shards[idx%uint32(len(m.shards))]
	}
	return m
}

// observe records one response time on this CPU's shard. The path
// allocates nothing (TestObserveAllocs) and, once each P holds its shard,
// touches no shared cache lines.
func (m *gatewayMetrics) observe(user int, seconds float64) {
	sh := m.shardPool.Get().(*metricShard)
	sh.mu.Lock()
	sh.hists[user].Add(seconds)
	sh.moments[user].Add(seconds)
	sh.mu.Unlock()
	m.shardPool.Put(sh)
}

// mergeUsers folds every shard into fresh per-user aggregates using
// stats.LogHistogram.Merge and the Welford parallel-moments Merge. Scrapes
// pay the merge; the request path stays contention-free.
func (m *gatewayMetrics) mergeUsers() ([]*stats.LogHistogram, []stats.Welford) {
	hists := make([]*stats.LogHistogram, m.nUsers)
	moments := make([]stats.Welford, m.nUsers)
	for i := range hists {
		hists[i] = stats.NewLogHistogram(histLo, histHi, histGrowth)
	}
	for s := range m.shards {
		sh := &m.shards[s]
		sh.mu.Lock()
		for i := range hists {
			hists[i].Merge(sh.hists[i])
			moments[i].Merge(sh.moments[i])
		}
		sh.mu.Unlock()
	}
	return hists, moments
}

// Snapshot is a consistent copy of the gateway's counters for programmatic
// consumers (tests, EXT8, the loadgen report).
type Snapshot struct {
	// BackendRequests counts successfully served requests per backend —
	// the empirical routing split checked against the equilibrium s_ij.
	BackendRequests []int64
	// BackendRejects and BackendErrors count queue-full answers and
	// transport failures per backend.
	BackendRejects []int64
	BackendErrors  []int64
	// QueueDepth is the jobs-in-system gauge per backend, read by the last
	// probe or depth poll.
	QueueDepth []int64
	// ConnOpened and ConnReused count, per backend pool, connections dialed
	// fresh and warm reuses off the idle pool (attempts minus dials — the
	// dialer counts opens, so the forward path pays one atomic add, not a
	// per-request httptrace context). A healthy steady state reuses nearly
	// always.
	ConnOpened []int64
	ConnReused []int64
	// Admission is the sharded token bucket's merged view (zero when
	// admission is disabled).
	Admission AdmissionStats
	// Admitted counts requests past admission control; the Rejected*
	// fields split the refusals by reason. UserAdmitted breaks Admitted
	// down per user — the raw material for per-gateway arrival-rate
	// estimation in a fleet.
	Admitted      int64
	UserAdmitted  []int64
	RejectedRate  int64
	RejectedSat   int64
	RejectedUser  int64
	RejectedDrain int64
	Rebalances    int64
	Polls         int64
	// Shed counts degraded-mode refusals; Reequilibrations counts
	// health-driven routing installs; TableInstalls counts control-plane
	// (fleet) routing tables applied; BreakerOpens counts breaker trips;
	// SolveFailures counts health-driven re-solves that failed, so the
	// install renormalized the current profile instead.
	Shed             int64
	Reequilibrations int64
	TableInstalls    int64
	BreakerOpens     int64
	SolveFailures    int64
	// RetryDenied counts retries the budget refused.
	RetryDenied int64
	// BreakerStates and Weights hold the health layer's per-backend view
	// (nil when the layer is disabled); Degraded and AdmitFraction describe
	// degraded-mode admission.
	BreakerStates []string
	Weights       []float64
	Degraded      bool
	AdmitFraction float64
	// UserCount and UserMeanSeconds summarize the per-user response times
	// (merged across shards); UserStdDevSeconds is the Welford sample
	// standard deviation.
	UserCount         []int64
	UserMeanSeconds   []float64
	UserStdDevSeconds []float64
	// UserP50 and UserP99 are log-interpolated histogram quantiles.
	UserP50 []float64
	UserP99 []float64
}

func (m *gatewayMetrics) snapshot() *Snapshot {
	s := &Snapshot{
		BackendRequests:  make([]int64, len(m.backendRequests)),
		BackendRejects:   make([]int64, len(m.backendRejects)),
		BackendErrors:    make([]int64, len(m.backendErrors)),
		QueueDepth:       make([]int64, len(m.queueDepth)),
		ConnOpened:       make([]int64, len(m.connOpened)),
		ConnReused:       make([]int64, len(m.connAttempts)),
		Admitted:         m.admitted.Load(),
		UserAdmitted:     make([]int64, m.nUsers),
		RejectedRate:     m.rejectedRate.Load(),
		RejectedSat:      m.rejectedSat.Load(),
		RejectedUser:     m.rejectedUser.Load(),
		RejectedDrain:    m.rejectedDrain.Load(),
		Rebalances:       m.rebalances.Load(),
		Polls:            m.polls.Load(),
		Shed:             m.shed.Load(),
		Reequilibrations: m.reequils.Load(),
		TableInstalls:    m.tableInstalls.Load(),
		BreakerOpens:     m.breakerOpens.Load(),
		SolveFailures:    m.solveFailures.Load(),
		RetryDenied:      m.retryDenied.Load(),
	}
	for j := range s.BackendRequests {
		s.BackendRequests[j] = m.backendRequests[j].Load()
		s.BackendRejects[j] = m.backendRejects[j].Load()
		s.BackendErrors[j] = m.backendErrors[j].Load()
		s.QueueDepth[j] = m.queueDepth[j].Load()
		s.ConnOpened[j] = m.connOpened[j].Load()
		s.ConnReused[j] = connReusedOf(m.connAttempts[j].Load(), s.ConnOpened[j])
	}
	hists, moments := m.mergeUsers()
	s.UserCount = make([]int64, len(hists))
	s.UserMeanSeconds = make([]float64, len(hists))
	s.UserStdDevSeconds = make([]float64, len(hists))
	s.UserP50 = make([]float64, len(hists))
	s.UserP99 = make([]float64, len(hists))
	for i, h := range hists {
		s.UserCount[i] = h.N()
		s.UserMeanSeconds[i] = moments[i].Mean()
		s.UserStdDevSeconds[i] = moments[i].StdDev()
		s.UserP50[i] = h.Quantile(0.5)
		s.UserP99[i] = h.Quantile(0.99)
	}
	return s
}

// render writes the Prometheus-style text exposition of every metric.
func (m *gatewayMetrics) render(b *strings.Builder) {
	w := func(format string, args ...any) { fmt.Fprintf(b, format, args...) }

	w("# HELP nashgate_admitted_total Requests past admission control.\n")
	w("# TYPE nashgate_admitted_total counter\n")
	w("nashgate_admitted_total %d\n", m.admitted.Load())

	w("# HELP nashgate_rejected_total Requests refused, by reason.\n")
	w("# TYPE nashgate_rejected_total counter\n")
	w("nashgate_rejected_total{reason=%q} %d\n", "ratelimit", m.rejectedRate.Load())
	w("nashgate_rejected_total{reason=%q} %d\n", "saturated", m.rejectedSat.Load())
	w("nashgate_rejected_total{reason=%q} %d\n", "bad_user", m.rejectedUser.Load())
	w("nashgate_rejected_total{reason=%q} %d\n", "shed", m.shed.Load())
	w("nashgate_rejected_total{reason=%q} %d\n", "draining", m.rejectedDrain.Load())

	w("# HELP nashgate_backend_requests_total Served requests per backend.\n")
	w("# TYPE nashgate_backend_requests_total counter\n")
	for j := range m.backendRequests {
		w("nashgate_backend_requests_total{backend=\"%d\"} %d\n", j, m.backendRequests[j].Load())
	}
	w("# HELP nashgate_backend_rejects_total Queue-full answers per backend.\n")
	w("# TYPE nashgate_backend_rejects_total counter\n")
	for j := range m.backendRejects {
		w("nashgate_backend_rejects_total{backend=\"%d\"} %d\n", j, m.backendRejects[j].Load())
	}
	w("# HELP nashgate_backend_errors_total Transport failures per backend.\n")
	w("# TYPE nashgate_backend_errors_total counter\n")
	for j := range m.backendErrors {
		w("nashgate_backend_errors_total{backend=\"%d\"} %d\n", j, m.backendErrors[j].Load())
	}
	w("# HELP nashgate_backend_queue_depth Jobs in system at the last probe or poll.\n")
	w("# TYPE nashgate_backend_queue_depth gauge\n")
	for j := range m.queueDepth {
		w("nashgate_backend_queue_depth{backend=\"%d\"} %d\n", j, m.queueDepth[j].Load())
	}
	w("# HELP nashgate_backend_conns_total Backend-pool connections by state (opened = dialed fresh, reused = warm from the idle pool).\n")
	w("# TYPE nashgate_backend_conns_total counter\n")
	for j := range m.connOpened {
		opened := m.connOpened[j].Load()
		w("nashgate_backend_conns_total{backend=\"%d\",state=%q} %d\n", j, "opened", opened)
		w("nashgate_backend_conns_total{backend=\"%d\",state=%q} %d\n", j, "reused", connReusedOf(m.connAttempts[j].Load(), opened))
	}

	w("# HELP nashgate_rebalances_total Routing-table hot swaps installed.\n")
	w("# TYPE nashgate_rebalances_total counter\n")
	w("nashgate_rebalances_total %d\n", m.rebalances.Load())
	w("# HELP nashgate_polls_total Queue-depth polling sweeps completed.\n")
	w("# TYPE nashgate_polls_total counter\n")
	w("nashgate_polls_total %d\n", m.polls.Load())
	w("# HELP nashgate_reequilibrations_total Health-driven routing installs.\n")
	w("# TYPE nashgate_reequilibrations_total counter\n")
	w("nashgate_reequilibrations_total %d\n", m.reequils.Load())
	w("# HELP nashgate_table_installs_total Control-plane routing tables applied.\n")
	w("# TYPE nashgate_table_installs_total counter\n")
	w("nashgate_table_installs_total %d\n", m.tableInstalls.Load())
	w("# HELP nashgate_breaker_opens_total Circuit-breaker trips to open.\n")
	w("# TYPE nashgate_breaker_opens_total counter\n")
	w("nashgate_breaker_opens_total %d\n", m.breakerOpens.Load())
	w("# HELP nashgate_solve_failures_total Health-driven re-solves that failed and fell back to renormalizing the current profile.\n")
	w("# TYPE nashgate_solve_failures_total counter\n")
	w("nashgate_solve_failures_total %d\n", m.solveFailures.Load())
	w("# HELP nashgate_retry_denied_total Retries refused by the retry budget.\n")
	w("# TYPE nashgate_retry_denied_total counter\n")
	w("nashgate_retry_denied_total %d\n", m.retryDenied.Load())

	w("# HELP nashgate_response_seconds Gateway-side response time per user.\n")
	w("# TYPE nashgate_response_seconds histogram\n")
	hists, _ := m.mergeUsers()
	for i, h := range hists {
		// Only emit non-empty buckets (plus +Inf) to keep the exposition
		// compact; cumulative counts stay correct because CumulativeLE
		// includes everything below each bound.
		for k := 0; k < h.Buckets(); k++ {
			if h.Count(k) == 0 {
				continue
			}
			w("nashgate_response_seconds_bucket{user=\"%d\",le=%q} %d\n",
				i, formatBound(h.Bound(k+1)), h.CumulativeLE(k))
		}
		w("nashgate_response_seconds_bucket{user=\"%d\",le=\"+Inf\"} %d\n", i, h.N())
		w("nashgate_response_seconds_sum{user=\"%d\"} %g\n", i, h.Sum())
		w("nashgate_response_seconds_count{user=\"%d\"} %d\n", i, h.N())
	}
}

// connReusedOf derives warm reuses from the attempt and dial counters; a
// failed dial consumes its attempt, so the difference never goes negative
// in steady state, but clamp anyway against mid-flight counter reads.
func connReusedOf(attempts, opened int64) int64 {
	if reused := attempts - opened; reused > 0 {
		return reused
	}
	return 0
}

func formatBound(x float64) string {
	if math.IsInf(x, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%.6g", x)
}
