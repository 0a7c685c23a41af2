package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"nashlb/internal/core"
	"nashlb/internal/fleet"
	"nashlb/internal/game"
	"nashlb/internal/report"
	"nashlb/internal/serve"
)

// ---------------------------------------------------------------------------
// EXT10 — gateway fleet: availability and equilibrium recovery under
// control-plane faults
// ---------------------------------------------------------------------------

// The EXT10 system doubles the EXT8 scale (Table-1 speed classes, slowest at
// 10 jobs/s) so the post-fault measurement windows hold enough requests for
// a meaningful split estimate, at the same utilization 0.55 where the Nash
// equilibrium loads every machine. Three gateway replicas spread the load;
// the churn scenarios drain and rejoin the slowest machine (the universe
// keeps 170 jobs/s of capacity against 99 offered, so membership changes
// never force shedding).
var (
	ext10Rates    = []float64{10, 20, 50, 100}
	ext10Arrivals = []float64{49.5, 29.7, 19.8} // rho = 0.55
)

// ext10Gateways is the fleet width; ext10ChurnIdx the machine the churn
// scenarios drain and rejoin.
const (
	ext10Gateways = 3
	ext10ChurnIdx = 0
)

// Ext10Row is one control-plane fault scenario's outcome across the fleet.
type Ext10Row struct {
	// Scenario names the injected control-plane fault pattern.
	Scenario string `json:"scenario"`
	// Sent, OK, Shed and Failed count post-warmup requests fleet-wide:
	// everything issued, 200s, degraded-mode 503s (Retry-After), and hard
	// failures (transport errors after client failover, 5xx, timeouts).
	Sent   int64 `json:"sent"`
	OK     int64 `json:"ok"`
	Shed   int64 `json:"shed"`
	Failed int64 `json:"failed"`
	// Availability is the well-formed-answer rate (OK + Shed) / Sent: a
	// deliberate shed is the control plane working, not an outage.
	Availability float64 `json:"availability"`
	// MeanSeconds is the mean response time of OK requests.
	MeanSeconds float64 `json:"mean_seconds"`
	// Failovers counts client-side transport failovers between gateways
	// (requests a dead gateway refused that a survivor then served).
	Failovers int64 `json:"failovers"`
	// Elections sums leadership assumptions across the whole fleet;
	// FinalEpoch is the highest table epoch installed on any survivor.
	Elections  int64  `json:"elections"`
	FinalEpoch uint64 `json:"final_epoch"`
	// RecoverSeconds is the time from the leader kill until every survivor
	// had re-elected and installed a new reign's table (negative when the
	// scenario kills nobody).
	RecoverSeconds float64 `json:"recover_seconds"`
	// SplitDevPost is the equilibrium-recovery measure: the largest
	// per-backend deviation between the fleet's aggregate routing split
	// over the post-fault window and the full-game Nash fractions.
	// PostSamples is that window's request count.
	SplitDevPost float64 `json:"split_dev_post"`
	PostSamples  int64   `json:"post_samples"`
}

// Ext10Result is the fleet fault grid. Its JSON form is the ext10_fleet
// section of BENCH_serve.json.
type Ext10Result struct {
	Experiment string    `json:"experiment"`
	Rates      []float64 `json:"rates"`
	Arrivals   []float64 `json:"arrivals"`
	Gateways   int       `json:"gateways"`
	// Predicted is the fault-free closed-form D(s) at the full-game Nash.
	Predicted float64 `json:"predicted_seconds"`
	// WindowSeconds is each scenario's measured window.
	WindowSeconds float64    `json:"window_seconds"`
	Rows          []Ext10Row `json:"scenarios"`
}

// ext10Scenario places one scenario's events as fractions of the window:
// the leader kill, the churn machine's drain and rejoin, and the point from
// which the post-fault split is measured (late enough that the survivors'
// arrival estimates have re-absorbed the change).
type ext10Scenario struct {
	name        string
	kill        bool
	churn       bool
	killFrac    float64
	leaveFrac   float64
	joinFrac    float64
	measureFrac float64
}

// Ext10 measures fleet-wide availability and equilibrium recovery while
// control-plane faults hit a three-gateway nashgate fleet: a clean baseline,
// a mid-window leader kill (re-election, immediate re-solve, client
// failover), backend churn (the slowest machine drains and rejoins through
// the membership endpoint, forwarded follower -> leader), and the compound
// of both. Each scenario replays the same seeded load schedule, so rows
// differ only by the injected faults.
func Ext10(seed uint64, quick bool) (*Ext10Result, error) {
	sys, err := game.NewSystem(ext10Rates, ext10Arrivals)
	if err != nil {
		return nil, err
	}
	solved, err := core.Solve(sys, core.Options{})
	if err != nil {
		return nil, err
	}
	if !solved.Converged {
		return nil, fmt.Errorf("ext10: NASH did not converge in %d rounds", solved.Rounds)
	}
	// The fleet's aggregate split target: backend j's share of all traffic
	// at the full-game Nash equilibrium.
	phiTotal := sys.TotalArrival()
	wantFrac := make([]float64, len(ext10Rates))
	for i, phi := range ext10Arrivals {
		for j, f := range solved.Profile[i] {
			wantFrac[j] += phi * f / phiTotal
		}
	}

	win := 16 * time.Second
	if quick {
		win = 6 * time.Second
	}
	scenarios := []ext10Scenario{
		{name: "clean", measureFrac: 0.2},
		{name: "leader kill", kill: true, killFrac: 0.2, measureFrac: 0.45},
		{name: "backend churn", churn: true, leaveFrac: 0.25, joinFrac: 0.5, measureFrac: 0.7},
		{name: "kill+churn", kill: true, churn: true,
			killFrac: 0.2, leaveFrac: 0.4, joinFrac: 0.55, measureFrac: 0.7},
	}

	res := &Ext10Result{
		Experiment:    "ext10_fleet",
		Rates:         append([]float64(nil), ext10Rates...),
		Arrivals:      append([]float64(nil), ext10Arrivals...),
		Gateways:      ext10Gateways,
		Predicted:     sys.OverallResponseTime(solved.Profile),
		WindowSeconds: win.Seconds(),
	}
	for _, sc := range scenarios {
		row, err := ext10Run(sc, wantFrac, seed, win)
		if err != nil {
			return nil, fmt.Errorf("ext10 %s: %w", sc.name, err)
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// ext10Chaos is what the fault-injection goroutine reports back.
type ext10Chaos struct {
	err            error
	recovered      bool
	recoverSeconds float64
	baseline       []int64 // survivor backend counts at measureFrac
}

// ext10Run measures one scenario: backends up, a fleet of gateway replicas
// over them, seeded open-loop load against all gateways, and the scenario's
// control-plane events injected on schedule.
func ext10Run(sc ext10Scenario, wantFrac []float64, seed uint64, win time.Duration) (*Ext10Row, error) {
	machines := make([]fleet.Machine, len(ext10Rates))
	backends := make([]*serve.Backend, len(ext10Rates))
	defer func() {
		for _, b := range backends {
			if b != nil {
				b.Close()
			}
		}
	}()
	for j, mu := range ext10Rates {
		b, err := serve.NewBackend(serve.BackendConfig{Rate: mu, Seed: seed + uint64(10000+j)})
		if err != nil {
			return nil, err
		}
		if err := b.Start(); err != nil {
			return nil, err
		}
		backends[j] = b
		machines[j] = fleet.Machine{URL: b.URL(), Rate: mu, Active: true}
	}

	nodes := make([]*fleet.Node, ext10Gateways)
	peers := make([]string, ext10Gateways)
	targets := make([]string, ext10Gateways)
	defer func() {
		for _, n := range nodes {
			if n != nil {
				_ = n.Kill()
			}
		}
	}()
	for i := range nodes {
		n, err := fleet.NewNode(fleet.Config{
			ID:       i,
			Machines: machines,
			Arrivals: ext10Arrivals,
			Gateway:  serve.GatewayConfig{Seed: seed + uint64(i), Timeout: 2 * time.Second},
			// Fast estimate tracking: after a kill the survivors absorb the
			// dead gateway's traffic share within a couple of windows.
			EstimateAlpha: 0.5,
			EstimateEvery: 100 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		nodes[i] = n
		peers[i] = n.ControlURL()
	}
	for i, n := range nodes {
		if err := n.Start(peers); err != nil {
			return nil, err
		}
		targets[i] = n.GatewayURL()
	}

	// Aggregate backend counts over the gateways that survive the scenario
	// (the equilibrium claim is about their combined routing).
	survivors := nodes
	if sc.kill {
		survivors = nodes[1:]
	}
	counts := func() []int64 {
		out := make([]int64, len(machines))
		for _, n := range survivors {
			snap := n.Gateway().Metrics()
			for j, c := range snap.BackendRequests {
				out[j] += c
			}
		}
		return out
	}
	// Membership requests go to the highest-ID replica — always a follower,
	// so churn scenarios exercise the forwarding path too.
	ctrl := nodes[len(nodes)-1].ControlURL()

	start := time.Now()
	at := func(frac float64) {
		if d := time.Until(start.Add(time.Duration(frac * float64(win)))); d > 0 {
			time.Sleep(d)
		}
	}
	chaosDone := make(chan ext10Chaos, 1)
	go func() {
		var out ext10Chaos
		defer func() { chaosDone <- out }()
		if sc.kill {
			at(sc.killFrac)
			killedAt := time.Now()
			if err := nodes[0].Kill(); err != nil {
				out.err = fmt.Errorf("leader kill: %w", err)
				return
			}
			deadline := killedAt.Add(3 * time.Second)
			for time.Now().Before(deadline) && !out.recovered {
				out.recovered = true
				for _, n := range survivors {
					e, _ := n.TableEpoch()
					if n.Leader() != 1 || e < 2 {
						out.recovered = false
						break
					}
				}
				if !out.recovered {
					time.Sleep(10 * time.Millisecond)
				}
			}
			out.recoverSeconds = time.Since(killedAt).Seconds()
		}
		if sc.churn {
			at(sc.leaveFrac)
			if err := ext10Membership(ctrl, "leave", machines[ext10ChurnIdx].URL); err != nil {
				out.err = err
				return
			}
			at(sc.joinFrac)
			if err := ext10Membership(ctrl, "join", machines[ext10ChurnIdx].URL); err != nil {
				out.err = err
				return
			}
		}
		at(sc.measureFrac)
		out.baseline = counts()
	}()

	load, err := serve.RunLoad(serve.LoadConfig{
		Targets:  targets,
		Arrivals: ext10Arrivals,
		Duration: win,
		Warmup:   win / 8,
		Seed:     seed,
	})
	if err != nil {
		return nil, err
	}
	chaos := <-chaosDone
	if chaos.err != nil {
		return nil, chaos.err
	}
	if sc.kill && !chaos.recovered {
		return nil, fmt.Errorf("fleet did not re-elect and re-solve within 3s of the leader kill")
	}

	row := &Ext10Row{Scenario: sc.name, MeanSeconds: load.Mean, Failovers: load.Failovers}
	for i := range load.Sent {
		row.Sent += load.Sent[i]
		row.OK += load.OK[i]
		row.Shed += load.Shed[i]
		row.Failed += load.Failed[i]
	}
	if row.Sent > 0 {
		row.Availability = float64(row.OK+row.Shed) / float64(row.Sent)
	}
	row.RecoverSeconds = -1
	if sc.kill {
		row.RecoverSeconds = chaos.recoverSeconds
	}
	for _, n := range nodes {
		row.Elections += n.Elections()
	}
	for _, n := range survivors {
		if e, _ := n.TableEpoch(); e > row.FinalEpoch {
			row.FinalEpoch = e
		}
	}

	final := counts()
	for j := range final {
		row.PostSamples += final[j] - chaos.baseline[j]
	}
	if row.PostSamples > 0 {
		for j, want := range wantFrac {
			got := float64(final[j]-chaos.baseline[j]) / float64(row.PostSamples)
			if d := math.Abs(got - want); d > row.SplitDevPost {
				row.SplitDevPost = d
			}
		}
	}
	return row, nil
}

// ext10Membership posts one machine op against a replica's control plane,
// retrying briefly through leadership churn (503s).
func ext10Membership(ctrl, op, url string) error {
	body, err := fleet.EncodeMachineOp(fleet.MachineOp{Op: op, URL: url})
	if err != nil {
		return err
	}
	var last error
	for attempt := 0; attempt < 5; attempt++ {
		resp, err := http.Post(ctrl+"/fleet/machines", "application/json", bytes.NewReader(body))
		if err != nil {
			last = err
		} else {
			out, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Errorf("%s %s: %s: %s", op, url, resp.Status, bytes.TrimSpace(out))
			if resp.StatusCode != http.StatusServiceUnavailable {
				break
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("ext10 membership: %w", last)
}

// Table renders the fleet fault grid.
func (r *Ext10Result) Table() *report.Table {
	t := report.NewTable(fmt.Sprintf(
		"EXT10 — gateway fleet under control-plane faults (%d gateways, %gs windows, clean D=%ss)",
		r.Gateways, r.WindowSeconds, report.F(r.Predicted, 4)),
		"scenario", "sent", "ok", "shed", "failed", "availability", "mean D (s)",
		"failovers", "elections", "epoch", "recover (s)", "split dev", "post n")
	for _, row := range r.Rows {
		recovery := "-"
		if row.RecoverSeconds >= 0 {
			recovery = report.F(row.RecoverSeconds, 3)
		}
		t.AddRow(
			row.Scenario,
			fmt.Sprintf("%d", row.Sent),
			fmt.Sprintf("%d", row.OK),
			fmt.Sprintf("%d", row.Shed),
			fmt.Sprintf("%d", row.Failed),
			report.F(row.Availability, 4),
			report.F(row.MeanSeconds, 5),
			fmt.Sprintf("%d", row.Failovers),
			fmt.Sprintf("%d", row.Elections),
			fmt.Sprintf("%d", row.FinalEpoch),
			recovery,
			report.F(row.SplitDevPost, 4),
			fmt.Sprintf("%d", row.PostSamples),
		)
	}
	return t
}
