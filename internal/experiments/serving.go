package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"nashlb/internal/cluster"
	"nashlb/internal/core"
	"nashlb/internal/game"
	"nashlb/internal/report"
	"nashlb/internal/serve"
)

// ---------------------------------------------------------------------------
// EXT8 — live serving: loadgen vs simulator vs closed form
// ---------------------------------------------------------------------------

// The live-serving system is the scaled-down Table-1 instance validated by
// the internal/serve end-to-end tests: one computer per relative speed
// class, slowest node at 5 jobs/s (mean service 200ms), three users
// splitting the total load 0.5/0.3/0.2 at utilization 0.55. The scale keeps
// per-request HTTP overhead (~0.6ms/hop on loopback) negligible against the
// response times while the offered ~50 req/s stays light enough that a
// small machine's CPU does not itself become a queueing station.
var (
	ext8Rates    = []float64{5, 10, 25, 50}
	ext8Arrivals = []float64{24.75, 14.85, 9.9}
)

// Ext8Row is one measurement source — closed form, discrete-event
// simulation, or the live nashgate/loadgen HTTP stack — over the same
// system and Nash profile.
type Ext8Row struct {
	// Source names the measurement: "closed form", "simulator" or
	// "live gateway".
	Source string `json:"source"`
	// Overall is the mean response time in seconds (closed form: D(s)).
	Overall float64 `json:"overall_seconds"`
	// RelErr is |Overall - closed form| / closed form.
	RelErr float64 `json:"rel_err"`
	// MaxSplitDev is the largest |Split_j - equilibrium s_j|.
	MaxSplitDev float64 `json:"max_split_dev"`
	// Jobs counts measured completions (0 for the closed form).
	Jobs int64 `json:"jobs"`
	// PerUser holds per-user mean response times D_i in seconds.
	PerUser []float64 `json:"per_user_seconds"`
	// Split is the fraction of traffic handled by each computer.
	Split []float64 `json:"split"`
}

// Ext8Result compares the three measurement sources on the live-serving
// system under the solved Nash profile. Its JSON form is the
// ext8_live_serving section of BENCH_serve.json.
type Ext8Result struct {
	Experiment string       `json:"experiment"`
	Rates      []float64    `json:"rates"`
	Arrivals   []float64    `json:"arrivals"`
	Profile    game.Profile `json:"-"`
	// Predicted is the closed-form overall expected response time D(s).
	Predicted float64 `json:"predicted_seconds"`
	// SimSeconds and LiveSeconds are the measured windows (simulated
	// seconds and wall-clock seconds respectively).
	SimSeconds  float64 `json:"sim_window_seconds"`
	LiveSeconds float64 `json:"live_window_seconds"`
	// Rows holds closed form, simulator and live gateway, in that order.
	Rows []Ext8Row `json:"sources"`
}

// ext8AggregateSplit returns the equilibrium aggregate traffic fraction per
// computer, s_j = sum_i phi_i s_ij / Phi.
func ext8AggregateSplit(sys *game.System, p game.Profile) []float64 {
	split := make([]float64, sys.Computers())
	phiTotal := sys.TotalArrival()
	for i, phi := range sys.Arrivals {
		for j, f := range p[i] {
			split[j] += phi * f / phiTotal
		}
	}
	return split
}

// Ext8 validates the serving gateway end to end: it solves the Nash
// equilibrium of the live-serving system, then measures the same profile
// three ways — the closed-form M/M/1 prediction, the discrete-event
// simulator, and the real nashgate HTTP gateway driven by the open-loop
// loadgen over loopback sockets — and reports how closely the empirical
// response times and routing splits track theory. Quick mode shortens both
// measurement windows (the live row's wall-clock cost dominates: the run
// really serves traffic for LiveSeconds).
func Ext8(seed uint64, quick bool) (*Ext8Result, error) {
	sys, err := game.NewSystem(ext8Rates, ext8Arrivals)
	if err != nil {
		return nil, err
	}
	solved, err := core.Solve(sys, core.Options{})
	if err != nil {
		return nil, err
	}
	if !solved.Converged {
		return nil, fmt.Errorf("ext8: NASH did not converge in %d rounds", solved.Rounds)
	}
	profile := solved.Profile
	predicted := sys.OverallResponseTime(profile)
	eqSplit := ext8AggregateSplit(sys, profile)

	// Quick mode shortens the live window (it costs wall-clock time); the
	// simulated window stays long enough for a stable mean — simulated
	// seconds are nearly free, and response times correlate across busy
	// periods so short windows wobble by ~10%.
	simSeconds, liveDur := 2000.0, 16*time.Second
	if quick {
		simSeconds, liveDur = 800.0, 4*time.Second
	}

	res := &Ext8Result{
		Experiment:  "ext8_live_serving",
		Rates:       append([]float64(nil), ext8Rates...),
		Arrivals:    append([]float64(nil), ext8Arrivals...),
		Profile:     profile,
		Predicted:   predicted,
		SimSeconds:  simSeconds,
		LiveSeconds: liveDur.Seconds(),
	}

	// Row 1: the closed form itself (zero deviation by construction).
	res.Rows = append(res.Rows, Ext8Row{
		Source:  "closed form",
		Overall: predicted,
		PerUser: sys.UserResponseTimes(profile),
		Split:   eqSplit,
	})

	// Row 2: discrete-event simulation of the same system and profile.
	sim, err := cluster.Simulate(cluster.Config{
		Rates:    ext8Rates,
		Arrivals: ext8Arrivals,
		Profile:  profile,
		Duration: simSeconds,
		Warmup:   simSeconds / 10,
		Seed:     seed,
	})
	if err != nil {
		return nil, fmt.Errorf("ext8 simulator: %w", err)
	}
	simSplit := make([]float64, len(ext8Rates))
	var simJobs int64
	for _, c := range sim.PerComputer {
		simJobs += c.N()
	}
	for j, c := range sim.PerComputer {
		if simJobs > 0 {
			simSplit[j] = float64(c.N()) / float64(simJobs)
		}
	}
	res.Rows = append(res.Rows, ext8Row("simulator", sim.OverallMean(),
		sim.UserMeans(), simSplit, simJobs, predicted, eqSplit))

	// Row 3: the live HTTP stack — in-process backends, real sockets.
	live, err := ext8Live(profile, seed, liveDur)
	if err != nil {
		return nil, fmt.Errorf("ext8 live gateway: %w", err)
	}
	res.Rows = append(res.Rows, ext8Row("live gateway", live.mean,
		live.perUser, live.split, live.jobs, predicted, eqSplit))
	return res, nil
}

func ext8Row(source string, overall float64, perUser, split []float64, jobs int64, predicted float64, eqSplit []float64) Ext8Row {
	row := Ext8Row{
		Source:  source,
		Overall: overall,
		PerUser: perUser,
		Split:   split,
		Jobs:    jobs,
		RelErr:  math.Abs(overall-predicted) / predicted,
	}
	for j, s := range split {
		row.MaxSplitDev = math.Max(row.MaxSplitDev, math.Abs(s-eqSplit[j]))
	}
	return row
}

// ext8LiveRun is the measured outcome of one live serving window.
type ext8LiveRun struct {
	mean    float64
	perUser []float64
	split   []float64
	jobs    int64
}

// ext8Live serves the profile for real: it starts one in-process M/M/1
// backend per computer and a statically-routed gateway, drives them with
// the open-loop Poisson loadgen over loopback sockets, and reads the
// empirical split back from the gateway's own metrics.
func ext8Live(profile game.Profile, seed uint64, dur time.Duration) (*ext8LiveRun, error) {
	urls, stopBackends, err := startBackends(ext8Rates, seed+1000)
	if err != nil {
		return nil, err
	}
	defer stopBackends()
	g, err := serve.NewGateway(serve.GatewayConfig{
		Backends: urls,
		Rates:    ext8Rates,
		Arrivals: ext8Arrivals,
		Profile:  profile,
		Seed:     seed,
	})
	if err != nil {
		return nil, err
	}
	if err := g.Start(); err != nil {
		return nil, err
	}
	defer g.Close()

	load, err := serve.RunLoad(serve.LoadConfig{
		Target:   g.URL(),
		Arrivals: ext8Arrivals,
		Duration: dur,
		Warmup:   time.Second,
		Seed:     seed,
	})
	if err != nil {
		return nil, err
	}
	tot := totalsOf(load)
	if tot.rejected != 0 || tot.failed != 0 {
		return nil, fmt.Errorf("%d rejected, %d failed (want a clean run)", tot.rejected, tot.failed)
	}

	snap := g.Metrics()
	var total int64
	for _, c := range snap.BackendRequests {
		total += c
	}
	if total == 0 {
		return nil, fmt.Errorf("no requests reached any backend")
	}
	split := make([]float64, len(snap.BackendRequests))
	for j, c := range snap.BackendRequests {
		split[j] = float64(c) / float64(total)
	}
	return &ext8LiveRun{
		mean:    load.Mean,
		perUser: append([]float64(nil), load.MeanSeconds...),
		split:   split,
		jobs:    tot.ok,
	}, nil
}

// startBackends starts one in-process M/M/1 backend per rate, backend j
// seeded seedBase+j, and returns their URLs with a function that closes
// them all.
func startBackends(rates []float64, seedBase uint64) ([]string, func(), error) {
	var backends []*serve.Backend
	stop := func() {
		for _, b := range backends {
			b.Close()
		}
	}
	urls := make([]string, len(rates))
	for j, mu := range rates {
		b, err := serve.NewBackend(serve.BackendConfig{Rate: mu, Seed: seedBase + uint64(j)})
		if err == nil {
			err = b.Start()
		}
		if err != nil {
			stop()
			return nil, nil, err
		}
		backends = append(backends, b)
		urls[j] = b.URL()
	}
	return urls, stop, nil
}

// loadTotals sums a load run's post-warmup outcomes over its users.
type loadTotals struct {
	sent, ok, shed, rejected, failed int64
}

func totalsOf(load *serve.LoadResult) loadTotals {
	var t loadTotals
	for i := range load.Sent {
		t.sent += load.Sent[i]
		t.ok += load.OK[i]
		t.shed += load.Shed[i]
		t.rejected += load.Rejected[i]
		t.failed += load.Failed[i]
	}
	return t
}

// share is n as a fraction of the requests sent (0 when none were).
func (t loadTotals) share(n int64) float64 {
	if t.sent == 0 {
		return 0
	}
	return float64(n) / float64(t.sent)
}

// Table renders the comparison.
func (r *Ext8Result) Table() *report.Table {
	cols := []string{"source", "overall D (s)", "rel err", "max split dev", "jobs"}
	for i := range r.Arrivals {
		cols = append(cols, fmt.Sprintf("D_%d (s)", i+1))
	}
	for j := range r.Rates {
		cols = append(cols, fmt.Sprintf("s_%d", j+1))
	}
	t := report.NewTable(fmt.Sprintf(
		"EXT8 — live serving vs simulator vs closed form (Nash profile, rho=%.2f, D=%ss)",
		r.ratesUtilization(), report.F(r.Predicted, 4)), cols...)
	for _, row := range r.Rows {
		cells := []string{
			row.Source,
			report.F(row.Overall, 5),
			report.F(row.RelErr, 4),
			report.F(row.MaxSplitDev, 4),
			fmt.Sprintf("%d", row.Jobs),
		}
		for _, d := range row.PerUser {
			cells = append(cells, report.F(d, 5))
		}
		for _, s := range row.Split {
			cells = append(cells, report.F(s, 4))
		}
		t.AddRow(cells...)
	}
	return t
}

func (r *Ext8Result) ratesUtilization() float64 {
	var phi, mu float64
	for _, x := range r.Arrivals {
		phi += x
	}
	for _, x := range r.Rates {
		mu += x
	}
	return phi / mu
}

// BenchJSON serializes the run for machine consumption. For the combined
// BENCH_serve.json document see ServeBenchJSON.
func (r *Ext8Result) BenchJSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
