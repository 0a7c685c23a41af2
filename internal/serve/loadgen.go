package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nashlb/internal/rng"
	"nashlb/internal/stats"
)

// Latency-histogram shape for the load generator: 10µs to 1000s at ~5%
// relative resolution — wide enough that a corrected percentile during a
// multi-second stall still lands in a bucket instead of the overflow bin.
const (
	loadHistLo     = 1e-5
	loadHistHi     = 1000.0
	loadHistGrowth = 1.05
)

// LoadConfig describes a Poisson load test against a gateway (or a fleet of
// them): open-loop by default, closed-loop with Mode = "closed".
type LoadConfig struct {
	// Target is the gateway's base URL.
	Target string
	// Targets, when non-empty, overrides Target with a list of gateway base
	// URLs — the client view of a gateway fleet. Each request picks a target
	// uniformly from a seeded per-user stream and, on a transport-level
	// failure (connection refused — a dead gateway), fails over to the next
	// target in round-robin order before giving up. HTTP answers, including
	// 503s, come from a live gateway and are terminal.
	Targets []string
	// Arrivals holds each user's request rate phi_i (requests/second); one
	// independent Poisson stream per user.
	Arrivals []float64
	// Duration is how long each stream sends.
	Duration time.Duration
	// Warmup discards responses to requests sent before this offset, so
	// reported statistics cover the (near-)stationary regime only.
	Warmup time.Duration
	// Seed roots the interarrival streams (reproducible schedules).
	Seed uint64
	// Timeout bounds each request (default 10s).
	Timeout time.Duration

	// Mode selects the generator discipline: "" or "open" fires every
	// request at its scheduled arrival time in its own goroutine (offered
	// load independent of response latency), "closed" drives the same
	// Poisson schedule through a fixed pool of Connections synchronous
	// workers — the wrk-style discipline, which suffers coordinated
	// omission near saturation and is exactly what the corrected
	// percentiles compensate for.
	Mode string
	// Connections is the closed-loop worker count (default 16; ignored in
	// open mode).
	Connections int
}

// LatencySummary is a wrk-style percentile report over the OK responses of
// one load run.
type LatencySummary struct {
	// Count is the number of recorded responses.
	Count int64
	// Mean and Max are in seconds.
	Mean float64
	Max  float64
	// P50..P999 are log-interpolated histogram quantiles, in seconds.
	P50  float64
	P90  float64
	P99  float64
	P999 float64
}

// latencyRecorder accumulates the run-wide corrected and uncorrected
// latency histograms. Corrected latency is measured from each request's
// intended (scheduled) arrival time, uncorrected from the moment the
// request actually hit the wire: when the system stalls, a closed-loop
// generator stops sending and the uncorrected histogram silently omits the
// queueing its unsent requests would have seen — coordinated omission. The
// corrected histogram charges that wait to every late request.
type latencyRecorder struct {
	mu          sync.Mutex
	corrected   *stats.LogHistogram
	uncorrected *stats.LogHistogram
}

func newLatencyRecorder() *latencyRecorder {
	return &latencyRecorder{
		corrected:   stats.NewLogHistogram(loadHistLo, loadHistHi, loadHistGrowth),
		uncorrected: stats.NewLogHistogram(loadHistLo, loadHistHi, loadHistGrowth),
	}
}

func (lr *latencyRecorder) record(corrected, uncorrected float64) {
	if corrected < uncorrected {
		// An early wakeup fired the request ahead of schedule; the intended
		// latency is never better than the observed one.
		corrected = uncorrected
	}
	lr.mu.Lock()
	lr.corrected.Add(corrected)
	lr.uncorrected.Add(uncorrected)
	lr.mu.Unlock()
}

func summarize(h *stats.LogHistogram) LatencySummary {
	s := LatencySummary{Count: h.N()}
	if s.Count == 0 {
		return s
	}
	s.Mean = h.Mean()
	s.Max = h.Max()
	s.P50 = h.Quantile(0.5)
	s.P90 = h.Quantile(0.9)
	s.P99 = h.Quantile(0.99)
	s.P999 = h.Quantile(0.999)
	return s
}

// LoadResult aggregates a load run's outcome.
type LoadResult struct {
	// Sent counts requests issued per user (after warmup; TotalSent counts
	// everything, warmup included).
	Sent      []int64
	TotalSent int64
	// OK, Rejected and Failed count post-warmup terminal outcomes per user:
	// 200s, admission/queue 429/503s, and transport errors or other codes.
	OK       []int64
	Rejected []int64
	Failed   []int64
	// Status2xx, Status429, Status503 and Status5xx break the outcomes down
	// by status class per user (Status5xx counts 5xx other than 503 — 502s
	// from a dead backend, injected failures). Shed counts the subset of 503s
	// carrying Retry-After, the gateway's degraded-mode shedding signature.
	Status2xx []int64
	Status429 []int64
	Status503 []int64
	Status5xx []int64
	Shed      []int64
	// Timeouts counts client-deadline expiries; TransportErrors counts the
	// remaining connection-level failures (refused, reset, EOF).
	Timeouts        []int64
	TransportErrors []int64
	// MeanSeconds, MinSeconds and MaxSeconds summarize post-warmup
	// response times of OK requests, per user; Mean is the overall mean.
	MeanSeconds []float64
	MinSeconds  []float64
	MaxSeconds  []float64
	Mean        float64
	// Corrected and Uncorrected are the run-wide latency percentiles over
	// OK responses: Uncorrected measures from the actual send, Corrected
	// from the intended (scheduled) arrival time — the coordinated-omission
	// compensation. In open mode the two agree up to scheduler jitter; in
	// closed mode Corrected is the honest one near saturation.
	Corrected   LatencySummary
	Uncorrected LatencySummary
	// PerTarget breaks post-warmup attempts down by target (attempt-level:
	// a request that fails over counts one attempt on every target it
	// touched, while the per-user counters above record only its final
	// outcome). Failovers counts post-warmup transport-triggered switches.
	PerTarget []TargetCounts
	Failovers int64
}

// TargetCounts aggregates one target's post-warmup attempt outcomes across
// all users.
type TargetCounts struct {
	Target    string
	Sent      int64
	Status2xx int64
	Status429 int64
	Status503 int64
	Status5xx int64
	Shed      int64
	Timeouts  int64
	Transport int64
}

// targetAccum accumulates one target's counts under its own lock.
type targetAccum struct {
	mu sync.Mutex
	c  TargetCounts
}

func (a *targetAccum) note(warm bool, status int, shed bool, err error) {
	if !warm {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.c.Sent++
	switch {
	case err != nil:
		if errors.Is(err, context.DeadlineExceeded) {
			a.c.Timeouts++
		} else {
			a.c.Transport++
		}
	case status >= 200 && status < 300:
		a.c.Status2xx++
	case status == http.StatusTooManyRequests:
		a.c.Status429++
	case status == http.StatusServiceUnavailable:
		a.c.Status503++
		if shed {
			a.c.Shed++
		}
	case status >= 500:
		a.c.Status5xx++
	}
}

// userStats accumulates one user's post-warmup outcomes under its own lock
// (responses arrive from many in-flight goroutines).
type userStats struct {
	mu       sync.Mutex
	sent     int64
	ok       int64
	rejected int64
	failed   int64
	s2xx     int64
	s429     int64
	s503     int64
	s5xx     int64
	shed     int64
	timeouts int64
	trans    int64
	sum      float64
	min, max float64
}

// RunLoad drives the gateway with a seeded Poisson workload — open-loop by
// default (one arrival process per user, every request fired at its
// scheduled time regardless of response latency), closed-loop with
// Mode = "closed" (a fixed worker pool, wrk-style) — and reports outcome
// counts plus corrected and uncorrected latency percentiles. It blocks
// until the duration elapses and all in-flight requests complete.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	m := len(cfg.Arrivals)
	if m == 0 {
		return nil, fmt.Errorf("serve: loadgen needs at least one user")
	}
	targets := cfg.Targets
	if len(targets) == 0 {
		if cfg.Target == "" {
			return nil, fmt.Errorf("serve: loadgen needs a target")
		}
		targets = []string{cfg.Target}
	}
	for i, phi := range cfg.Arrivals {
		if !(phi > 0) {
			return nil, fmt.Errorf("serve: invalid arrival phi[%d]=%g", i, phi)
		}
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("serve: non-positive duration %v", cfg.Duration)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	switch cfg.Mode {
	case "", "open", "closed":
	default:
		return nil, fmt.Errorf("serve: unknown loadgen mode %q", cfg.Mode)
	}
	if cfg.Connections <= 0 {
		cfg.Connections = 16
	}

	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        1024,
			MaxIdleConnsPerHost: 1024,
			IdleConnTimeout:     30 * time.Second,
		},
	}
	defer client.CloseIdleConnections()

	src := rng.NewSource(cfg.Seed)
	stats := make([]*userStats, m)
	tacc := make([]*targetAccum, len(targets))
	for t := range tacc {
		tacc[t] = &targetAccum{c: TargetCounts{Target: targets[t]}}
	}
	for i := 0; i < m; i++ {
		stats[i] = &userStats{}
	}
	rec := newLatencyRecorder()
	var failovers atomic.Int64
	start := time.Now()
	if cfg.Mode == "closed" {
		if err := runClosedLoop(cfg, client, src, targets, tacc, stats, rec, &failovers, start); err != nil {
			return nil, err
		}
	} else {
		runOpenLoop(cfg, client, src, targets, tacc, stats, rec, &failovers, start)
	}

	res := &LoadResult{
		Sent:            make([]int64, m),
		OK:              make([]int64, m),
		Rejected:        make([]int64, m),
		Failed:          make([]int64, m),
		Status2xx:       make([]int64, m),
		Status429:       make([]int64, m),
		Status503:       make([]int64, m),
		Status5xx:       make([]int64, m),
		Shed:            make([]int64, m),
		Timeouts:        make([]int64, m),
		TransportErrors: make([]int64, m),
		MeanSeconds:     make([]float64, m),
		MinSeconds:      make([]float64, m),
		MaxSeconds:      make([]float64, m),
	}
	var totalSum float64
	var totalOK int64
	for i, st := range stats {
		res.Sent[i] = st.sent
		res.TotalSent += st.sent
		res.OK[i] = st.ok
		res.Rejected[i] = st.rejected
		res.Failed[i] = st.failed
		res.Status2xx[i] = st.s2xx
		res.Status429[i] = st.s429
		res.Status503[i] = st.s503
		res.Status5xx[i] = st.s5xx
		res.Shed[i] = st.shed
		res.Timeouts[i] = st.timeouts
		res.TransportErrors[i] = st.trans
		res.MinSeconds[i] = st.min
		res.MaxSeconds[i] = st.max
		if st.ok > 0 {
			res.MeanSeconds[i] = st.sum / float64(st.ok)
		}
		totalSum += st.sum
		totalOK += st.ok
	}
	if totalOK > 0 {
		res.Mean = totalSum / float64(totalOK)
	}
	res.Corrected = summarize(rec.corrected)
	res.Uncorrected = summarize(rec.uncorrected)
	res.PerTarget = make([]TargetCounts, len(tacc))
	for t, a := range tacc {
		res.PerTarget[t] = a.c
	}
	res.Failovers = failovers.Load()
	return res, nil
}

// runOpenLoop drives one open-loop Poisson arrival process per user: each
// user's goroutine walks a pre-seeded exponential interarrival schedule
// against absolute deadlines (so response latency never throttles the
// offered load — the defining property of open-loop generation) and fires
// every request in its own goroutine.
func runOpenLoop(cfg LoadConfig, client *http.Client, src *rng.Source, targets []string, tacc []*targetAccum, stats []*userStats, rec *latencyRecorder, failovers *atomic.Int64, start time.Time) {
	var wg sync.WaitGroup
	for i := range cfg.Arrivals {
		st := stats[i]
		stream := src.Stream(fmt.Sprintf("arrivals/%d", i))
		// The target pick draws from its own stream only in fleet mode, so
		// single-target schedules stay bit-identical to earlier releases.
		var pick *rng.Stream
		if len(targets) > 1 {
			pick = src.Stream(fmt.Sprintf("target/%d", i))
		}
		wg.Add(1)
		go func(user int, phi float64) {
			defer wg.Done()
			// Absolute schedule: next = start + sum of Exp(phi) draws.
			// Drift never accumulates, and a late wakeup fires immediately.
			next := start
			for {
				next = next.Add(time.Duration(stream.Exp(phi) * float64(time.Second)))
				offset := next.Sub(start)
				if offset >= cfg.Duration {
					return
				}
				// Plain sleep: sub-millisecond wakeup jitter on multi-
				// millisecond Poisson gaps barely perturbs the arrival
				// process, and not spinning (unlike the backends'
				// preciseWait) keeps the generator off the CPU — on small
				// machines generator spin would slow the very backends
				// being measured.
				time.Sleep(time.Until(next))
				warm := offset >= cfg.Warmup
				if warm {
					st.mu.Lock()
					st.sent++
					st.mu.Unlock()
				}
				idx := 0
				if pick != nil {
					idx = pick.Intn(len(targets))
				}
				intended := next
				wg.Add(1)
				go func() {
					defer wg.Done()
					fire(client, cfg, targets, tacc, user, idx, warm, intended, st, rec, failovers)
				}()
			}
		}(i, cfg.Arrivals[i])
	}
	wg.Wait()
}

// runClosedLoop drives the same aggregate Poisson schedule through a fixed
// pool of synchronous workers: each worker owns a 1/Connections share of
// the total arrival rate and issues its requests back to back, waiting for
// each response before the next send. When the system stalls, workers fall
// behind their schedules and the offered load silently collapses — the
// coordinated-omission failure mode — which is why every request carries
// its intended arrival time into the recorder.
func runClosedLoop(cfg LoadConfig, client *http.Client, src *rng.Source, targets []string, tacc []*targetAccum, stats []*userStats, rec *latencyRecorder, failovers *atomic.Int64, start time.Time) error {
	var total float64
	for _, phi := range cfg.Arrivals {
		total += phi
	}
	// One shared alias sampler maps each request to a user with probability
	// phi_i/total, so per-user mixes match the open-loop generator in
	// expectation.
	alias, err := rng.NewAlias(cfg.Arrivals)
	if err != nil {
		return fmt.Errorf("serve: loadgen user sampler: %w", err)
	}
	workers := cfg.Connections
	rate := total / float64(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		stream := src.Stream(fmt.Sprintf("conn/%d", w))
		pickUser := src.Stream(fmt.Sprintf("connuser/%d", w))
		var pick *rng.Stream
		if len(targets) > 1 {
			pick = src.Stream(fmt.Sprintf("conntarget/%d", w))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := start
			for {
				next = next.Add(time.Duration(stream.Exp(rate) * float64(time.Second)))
				offset := next.Sub(start)
				if offset >= cfg.Duration {
					return
				}
				if wait := time.Until(next); wait > 0 {
					time.Sleep(wait)
				}
				warm := offset >= cfg.Warmup
				user := alias.Pick(pickUser)
				st := stats[user]
				if warm {
					st.mu.Lock()
					st.sent++
					st.mu.Unlock()
				}
				idx := 0
				if pick != nil {
					idx = pick.Intn(len(targets))
				}
				// Synchronous: the worker blocks until this request resolves
				// — the closed-loop discipline under test.
				fire(client, cfg, targets, tacc, user, idx, warm, next, st, rec, failovers)
			}
		}()
	}
	wg.Wait()
	return nil
}

// fire issues one request, failing over across targets on transport errors
// (the whole failover chain shares one Timeout), and records its outcome.
// intended is the request's scheduled arrival time — the zero point for the
// corrected latency.
func fire(client *http.Client, cfg LoadConfig, targets []string, tacc []*targetAccum, user, startIdx int, warm bool, intended time.Time, st *userStats, rec *latencyRecorder, failovers *atomic.Int64) {
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()
	idx := startIdx
	for attempt := 0; ; attempt++ {
		status, shed, seconds, done, err := issue(ctx, client, targets[idx], user)
		tacc[idx].note(warm, status, shed, err)
		// A transport-level failure may mean the gateway itself is dead:
		// against a fleet, try each remaining peer once. HTTP answers —
		// including 503s — come from a live gateway and are terminal, and a
		// spent deadline ends the chain.
		if err != nil && ctx.Err() == nil && attempt < len(targets)-1 {
			idx = (idx + 1) % len(targets)
			if warm {
				failovers.Add(1)
			}
			continue
		}
		if warm && err == nil && status == http.StatusOK {
			rec.record(done.Sub(intended).Seconds(), seconds)
		}
		record(st, warm, status, shed, seconds, err)
		return
	}
}

// issue performs one attempt against one target. done is the completion
// instant (for intended-start latency accounting); seconds measures from
// the actual send.
func issue(ctx context.Context, client *http.Client, target string, user int) (status int, shed bool, seconds float64, done time.Time, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/submit", nil)
	if err != nil {
		return -1, false, 0, time.Time{}, err
	}
	req.Header.Set("X-User", fmt.Sprintf("%d", user))
	began := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return -1, false, 0, time.Time{}, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	shed = resp.Header.Get("Retry-After") != ""
	resp.Body.Close()
	done = time.Now()
	return resp.StatusCode, shed, done.Sub(began).Seconds(), done, nil
}

func record(st *userStats, warm bool, status int, shed bool, seconds float64, err error) {
	if !warm {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case err != nil:
		st.failed++
		if errors.Is(err, context.DeadlineExceeded) {
			st.timeouts++
		} else {
			st.trans++
		}
	case status == http.StatusOK:
		st.ok++
		st.s2xx++
		st.sum += seconds
		if st.ok == 1 || seconds < st.min {
			st.min = seconds
		}
		if seconds > st.max {
			st.max = seconds
		}
	case status == http.StatusTooManyRequests:
		st.rejected++
		st.s429++
	case status == http.StatusServiceUnavailable:
		st.rejected++
		st.s503++
		if shed {
			st.shed++
		}
	default:
		st.failed++
		if status >= 500 {
			st.s5xx++
		}
	}
}
