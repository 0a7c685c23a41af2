package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"nashlb/internal/core"
	"nashlb/internal/game"
	"nashlb/internal/report"
	"nashlb/internal/serve"
)

// ---------------------------------------------------------------------------
// EXT9 — self-healing serving: availability under injected HTTP faults
// ---------------------------------------------------------------------------

// The EXT9 system trades the EXT8 scale for speed: mean services of 25-100ms
// keep queues reactive inside a short wall-clock window while the offered
// ~31 req/s stays light on a small machine. One backend (the slowest) sits
// behind a ChaosProxy that injects the scenario's faults; the gateway runs
// with the full health layer — probes, breakers, survivor re-equilibration,
// degraded-mode shedding — and the loadgen measures what clients see.
// Utilization sits at rho = 0.7 so the Nash equilibrium loads every machine
// (at light load it would leave the slowest idle and the fault grid would be
// vacuous) while the survivor pair still has the capacity to absorb a crash.
var (
	ext9Rates    = []float64{20, 30, 40}
	ext9Arrivals = []float64{37.8, 25.2} // rho = 0.7
)

// ext9FaultIdx is the backend fronted by the chaos proxy.
const ext9FaultIdx = 0

// Ext9Row is one fault scenario's client-visible outcome.
type Ext9Row struct {
	// Scenario names the injected fault pattern.
	Scenario string `json:"scenario"`
	// Sent, OK, Shed and Failed count post-warmup requests: everything
	// issued, 200s, degraded-mode 503s (Retry-After), and hard failures
	// (transport errors, 5xx).
	Sent   int64 `json:"sent"`
	OK     int64 `json:"ok"`
	Shed   int64 `json:"shed"`
	Failed int64 `json:"failed"`
	// Availability is OK / Sent.
	Availability float64 `json:"availability"`
	// MeanSeconds is the mean response time of OK requests.
	MeanSeconds float64 `json:"mean_seconds"`
	// BreakerOpens and Reequilibrations count breaker trips and
	// health-driven routing installs over the window.
	BreakerOpens     int64 `json:"breaker_opens"`
	Reequilibrations int64 `json:"reequilibrations"`
	// FaultyShare is the fraction of served requests the faulty backend
	// carried (the routing answer to the fault).
	FaultyShare float64 `json:"faulty_share"`
}

// Ext9Result is the self-healing fault grid over the live gateway. Its
// JSON form is the ext9_self_healing section of BENCH_serve.json.
type Ext9Result struct {
	Experiment string    `json:"experiment"`
	Rates      []float64 `json:"rates"`
	Arrivals   []float64 `json:"arrivals"`
	// Predicted is the fault-free closed-form D(s) at the Nash profile.
	Predicted float64 `json:"predicted_seconds"`
	// WindowSeconds is each scenario's measured window.
	WindowSeconds float64   `json:"window_seconds"`
	Rows          []Ext9Row `json:"scenarios"`
}

// ext9Scenario describes one grid cell: the chaos schedule installed on the
// faulty backend's proxy for the whole window.
type ext9Scenario struct {
	name     string
	schedule func(win time.Duration) []serve.ChaosPhase
}

// Ext9 measures client-visible availability and response times while the
// self-healing gateway rides out injected HTTP faults on one backend:
// a clean baseline, a 5% error rate (below every breaker threshold — the
// retry path's territory), a 50% error rate (the error-rate window trips
// the breaker), and a mid-window crash with recovery (trip, survivor
// re-equilibration, ramped re-admission). Each scenario replays the same
// seeded load schedule, so rows differ only by the injected faults.
func Ext9(seed uint64, quick bool) (*Ext9Result, error) {
	sys, err := game.NewSystem(ext9Rates, ext9Arrivals)
	if err != nil {
		return nil, err
	}
	solved, err := core.Solve(sys, core.Options{})
	if err != nil {
		return nil, err
	}
	if !solved.Converged {
		return nil, fmt.Errorf("ext9: NASH did not converge in %d rounds", solved.Rounds)
	}
	profile := solved.Profile

	win := 12 * time.Second
	if quick {
		win = 4 * time.Second
	}
	scenarios := []ext9Scenario{
		{name: "clean", schedule: func(time.Duration) []serve.ChaosPhase { return nil }},
		{name: "errors 5%", schedule: func(time.Duration) []serve.ChaosPhase {
			return []serve.ChaosPhase{{ErrorRate: 0.05}}
		}},
		{name: "errors 50%", schedule: func(time.Duration) []serve.ChaosPhase {
			return []serve.ChaosPhase{{ErrorRate: 0.5}}
		}},
		{name: "crash+recover", schedule: func(w time.Duration) []serve.ChaosPhase {
			return []serve.ChaosPhase{
				{Start: 0},
				{Start: w / 4, Down: true},
				{Start: w * 6 / 10},
			}
		}},
	}

	res := &Ext9Result{
		Experiment:    "ext9_self_healing",
		Rates:         append([]float64(nil), ext9Rates...),
		Arrivals:      append([]float64(nil), ext9Arrivals...),
		Predicted:     sys.OverallResponseTime(profile),
		WindowSeconds: win.Seconds(),
	}
	for _, sc := range scenarios {
		row, err := ext9Run(sc, profile, seed, win)
		if err != nil {
			return nil, fmt.Errorf("ext9 %s: %w", sc.name, err)
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// ext9Run measures one scenario: backends up, chaos proxy on the faulty
// one, self-healing gateway, seeded open-loop load.
func ext9Run(sc ext9Scenario, profile game.Profile, seed uint64, win time.Duration) (*Ext9Row, error) {
	urls, stopBackends, err := startBackends(ext9Rates, seed+9000)
	if err != nil {
		return nil, err
	}
	defer stopBackends()
	proxy, err := serve.NewChaosProxy(serve.ChaosProxyConfig{
		Target:   urls[ext9FaultIdx],
		Seed:     seed + 99,
		Schedule: sc.schedule(win),
	})
	if err != nil {
		return nil, err
	}
	if err := proxy.Start(); err != nil {
		return nil, err
	}
	defer proxy.Close()
	urls[ext9FaultIdx] = proxy.URL()

	g, err := serve.NewGateway(serve.GatewayConfig{
		Backends:     urls,
		Rates:        ext9Rates,
		Arrivals:     ext9Arrivals,
		Profile:      profile,
		Seed:         seed,
		Timeout:      2 * time.Second,
		ProbeEvery:   100 * time.Millisecond,
		ProbeTimeout: 300 * time.Millisecond,
		Breaker:      serve.BreakerConfig{Failures: 3, Cooldown: 500 * time.Millisecond},
		RampSteps:    3,
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
		Arrivals: ext9Arrivals,
		Duration: win,
		Warmup:   win / 8,
		Seed:     seed,
	})
	if err != nil {
		return nil, err
	}

	tot := totalsOf(load)
	snap := g.Metrics()
	row := &Ext9Row{
		Scenario:         sc.name,
		Sent:             tot.sent,
		OK:               tot.ok,
		Shed:             tot.shed,
		Failed:           tot.failed,
		Availability:     tot.share(tot.ok),
		MeanSeconds:      load.Mean,
		BreakerOpens:     snap.BreakerOpens,
		Reequilibrations: snap.Reequilibrations,
	}
	var served int64
	for _, c := range snap.BackendRequests {
		served += c
	}
	if served > 0 {
		row.FaultyShare = float64(snap.BackendRequests[ext9FaultIdx]) / float64(served)
	}
	return row, nil
}

// Table renders the fault grid.
func (r *Ext9Result) Table() *report.Table {
	t := report.NewTable(fmt.Sprintf(
		"EXT9 — self-healing gateway under injected faults (backend %d faulty, %gs windows, clean D=%ss)",
		ext9FaultIdx, r.WindowSeconds, report.F(r.Predicted, 4)),
		"scenario", "sent", "ok", "shed", "failed", "availability",
		"mean D (s)", "opens", "reequils", "faulty share")
	for _, row := range r.Rows {
		t.AddRow(
			row.Scenario,
			fmt.Sprintf("%d", row.Sent),
			fmt.Sprintf("%d", row.OK),
			fmt.Sprintf("%d", row.Shed),
			fmt.Sprintf("%d", row.Failed),
			report.F(row.Availability, 4),
			report.F(row.MeanSeconds, 5),
			fmt.Sprintf("%d", row.BreakerOpens),
			fmt.Sprintf("%d", row.Reequilibrations),
			report.F(row.FaultyShare, 4),
		)
	}
	return t
}

// serveBenchSchema is the BENCH_serve.json schema version ServeBenchJSON
// writes: one key per serving experiment, plus the "throughput" key merged
// in afterwards by cmd/benchjson -serve. Schema 5 added ext12_partition to
// schema 4's keys.
const serveBenchSchema = 5

// serveBench is the document ServeBenchJSON writes.
type serveBench struct {
	Schema int          `json:"schema"`
	Ext8   *Ext8Result  `json:"ext8_live_serving,omitempty"`
	Ext9   *Ext9Result  `json:"ext9_self_healing,omitempty"`
	Ext10  *Ext10Result `json:"ext10_fleet,omitempty"`
	Ext12  *Ext12Result `json:"ext12_partition,omitempty"`
}

// ServeBenchJSON combines the EXT8, EXT9, EXT10 and EXT12 results into the
// BENCH_serve.json document (schema serveBenchSchema). Any result may be
// nil; its key is then omitted.
func ServeBenchJSON(ext8 *Ext8Result, ext9 *Ext9Result, ext10 *Ext10Result, ext12 *Ext12Result) ([]byte, error) {
	return json.MarshalIndent(serveBench{Schema: serveBenchSchema, Ext8: ext8, Ext9: ext9, Ext10: ext10, Ext12: ext12}, "", "  ")
}
