package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"nashlb/internal/core"
	"nashlb/internal/dist"
	"nashlb/internal/fleet"
	"nashlb/internal/fleet/audit"
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
	// RecoverSeconds is the failover clock from the leader kill until the
	// survivors agreed on a leader with a newer epoch installed than at the
	// kill (negative when the scenario kills nobody).
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

// Ext10 measures fleet-wide availability and equilibrium recovery while
// control-plane faults hit a three-gateway nashgate fleet: a clean baseline,
// a mid-window leader kill (re-election, immediate re-solve, client
// failover), backend churn (the slowest machine drains and rejoins through
// the membership endpoint, forwarded follower -> leader), and the compound
// of both. Each scenario replays the same seeded load schedule, so rows
// differ only by the injected faults. The mark opens each scenario's
// post-fault split window, late enough that the survivors' arrival
// estimates have re-absorbed the change.
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
	wantFrac := ext8AggregateSplit(sys, solved.Profile)

	win := 16 * time.Second
	if quick {
		win = 6 * time.Second
	}
	kill := faultStep{at: 0.2, kind: stepKill, target: 0}
	scenarios := []faultScenario{
		{name: "clean", steps: []faultStep{{at: 0.2, kind: stepMark}}},
		{name: "leader kill", steps: []faultStep{kill, {at: 0.45, kind: stepMark}},
			clockFrom: stepKill, clockBase: stepKill},
		{name: "backend churn", steps: []faultStep{
			{at: 0.25, kind: stepLeave, target: ext10ChurnIdx},
			{at: 0.5, kind: stepJoin, target: ext10ChurnIdx},
			{at: 0.7, kind: stepMark},
		}},
		{name: "kill+churn", steps: []faultStep{
			kill,
			{at: 0.4, kind: stepLeave, target: ext10ChurnIdx},
			{at: 0.55, kind: stepJoin, target: ext10ChurnIdx},
			{at: 0.7, kind: stepMark},
		}, clockFrom: stepKill, clockBase: stepKill},
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
		out, err := runFleetFaults(sc, seed, seed+10000, 3*time.Second, win)
		if err != nil {
			return nil, fmt.Errorf("ext10 %s: %w", sc.name, err)
		}
		row := Ext10Row{
			Scenario:       sc.name,
			Sent:           out.sent,
			OK:             out.ok,
			Shed:           out.shed,
			Failed:         out.failed,
			Availability:   out.share(out.ok + out.shed),
			MeanSeconds:    out.mean,
			Failovers:      out.failovers,
			Elections:      out.elections,
			FinalEpoch:     out.finalEpoch,
			RecoverSeconds: out.failover,
		}
		for _, n := range out.post {
			row.PostSamples += n
		}
		if row.PostSamples > 0 {
			for j, want := range wantFrac {
				got := float64(out.post[j]) / float64(row.PostSamples)
				row.SplitDevPost = math.Max(row.SplitDevPost, math.Abs(got-want))
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// faultKind is what one step of a fault scenario does.
type faultKind int

const (
	stepNone      faultKind = iota
	stepPartition           // cut the control links between the step's groups
	stepHeal                // restore every control link
	stepKill                // crash a node, data plane included
	stepRestart             // restart a killed node from its durable store at its old addresses
	stepLeave               // drain a machine through a follower's membership endpoint
	stepJoin                // re-activate a drained machine the same way
	stepMark                // open the post-fault split window
	stepProxy               // switch the fault proxy to the step's phase
)

// String names the kind; leave and join are also the membership ops.
func (k faultKind) String() string {
	return [...]string{"none", "partition", "heal", "kill", "restart", "leave", "join", "mark", "proxy"}[k]
}

// faultStep is one timed step of a fault scenario.
type faultStep struct {
	at     float64 // fraction of the window, counted from its open
	kind   faultKind
	target int              // the node killed or restarted, or the machine that leaves or joins
	groups [][]int          // a partition's nemesis groups
	phase  serve.ChaosPhase // a proxy step's fault (the zero phase heals)
}

// runWindow owns one fault window of load.Duration. It applies the steps at
// offset 0, starts the seeded load, and runs each later step (steps are in
// time order) when its offset from the load's start comes, calling sample,
// if any, about every 10 ms while it waits. It returns once the load has
// ended and the last sample asked to hold the window no longer. An error
// from a step, a sample or the load ends the steps and is returned.
func runWindow(load serve.LoadConfig, steps []faultStep, do func(faultStep) error,
	sample func() (hold bool, err error)) (*serve.LoadResult, error) {
	var hold bool
	wait := func(until time.Time) error {
		for {
			if sample != nil {
				var err error
				if hold, err = sample(); err != nil {
					return err
				}
			}
			d := time.Until(until)
			if d <= 0 {
				return nil
			}
			time.Sleep(min(d, 10*time.Millisecond))
		}
	}
	for ; len(steps) > 0 && steps[0].at == 0; steps = steps[1:] {
		if err := do(steps[0]); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	var res *serve.LoadResult
	loadErr := make(chan error, 1)
	go func() {
		var err error
		res, err = serve.RunLoad(load)
		loadErr <- err
	}()
	var err error
	for k := 0; err == nil && k < len(steps); k++ {
		if err = wait(start.Add(time.Duration(steps[k].at * float64(load.Duration)))); err == nil {
			err = do(steps[k])
		}
	}
	loadOn := true
	for err == nil && (loadOn || hold) {
		select {
		case lerr := <-loadErr:
			loadOn, err = false, lerr
		default:
			err = wait(time.Now().Add(10 * time.Millisecond))
		}
	}
	if loadOn {
		if lerr := <-loadErr; err == nil {
			err = lerr
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// faultScenario is one cell of a fault grid.
type faultScenario struct {
	name  string
	steps []faultStep // in time order
	// The failover clock runs from the clockFrom step until nodes 1 and 2,
	// the majority side of every fault here, agree on a leader with an
	// installed epoch newer than node 1's at the clockBase step. A scenario
	// with clockFrom stepNone has no clock.
	clockFrom, clockBase faultKind
	// watch lists the nodes whose quorum loss counts.
	watch []int
}

// fleetOutcome is what one fleet fault scenario measured.
type fleetOutcome struct {
	loadTotals
	mean       float64 // mean response time of OK requests
	failovers  int64   // client transport failovers between gateways
	elections  int64   // leadership assumptions by each node ID's latest instance
	finalEpoch uint64  // highest table epoch installed on a live node at the end
	failover   float64 // seconds on the failover clock, -1 without one
	quorumLoss bool    // a watched node was seen below quorum
	// post counts the requests the live nodes routed to each backend after
	// the mark (nil without one).
	post                         []int64
	auditEvents, auditViolations int
}

// runFleetFaults measures one scenario on the EXT10 system: live backends
// (backend j seeded backendSeed+j), a three-node fleet over them, the
// scenario's steps on one fault window (runWindow) beside seeded open-loop
// load against every gateway, and the audit verdict over the fleet's merged
// trace. Every node consults one nemesis, whose links the partition and
// heal steps switch. Only the window's goroutine touches the nodes: it runs
// the steps and samples the watched quorums and the failover clock between
// them. A clock still running deadline after its start fails the run.
func runFleetFaults(sc faultScenario, seed, backendSeed uint64, deadline, win time.Duration) (*fleetOutcome, error) {
	urls, stopBackends, err := startBackends(ext10Rates, backendSeed)
	if err != nil {
		return nil, err
	}
	defer stopBackends()
	machines := make([]fleet.Machine, len(urls))
	for j, u := range urls {
		machines[j] = fleet.Machine{URL: u, Rate: ext10Rates[j], Active: true}
	}

	dir, err := os.MkdirTemp("", "nashlb-fleet-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	durable := make([]string, ext10Gateways)
	for _, st := range sc.steps {
		if st.kind == stepRestart {
			// A node restarts from what it persisted before the crash.
			durable[st.target] = filepath.Join(dir, strconv.Itoa(st.target))
		}
	}
	nem, err := dist.NewNemesis(ext10Gateways, seed+777)
	if err != nil {
		return nil, err
	}

	tr := &audit.Trace{}
	newNode := func(id int, ctrlAddr, gwAddr string) (*fleet.Node, error) {
		return fleet.NewNode(fleet.Config{
			ID:       id,
			Machines: machines,
			Arrivals: ext10Arrivals,
			Gateway:  serve.GatewayConfig{Seed: seed + uint64(id), Timeout: 2 * time.Second, Addr: gwAddr},
			// Fast estimate tracking: after a kill the survivors absorb the
			// dead gateway's traffic share within a couple of windows.
			EstimateAlpha: 0.5,
			EstimateEvery: 100 * time.Millisecond,
			Addr:          ctrlAddr,
			DurableDir:    durable[id],
			Seed:          seed + 100 + uint64(id),
			Link:          nem,
			Trace:         tr,
		})
	}
	// nodes holds each ID's latest instance; dead marks the killed ones.
	nodes := make([]*fleet.Node, ext10Gateways)
	dead := make([]bool, ext10Gateways)
	defer func() {
		for i, n := range nodes {
			if n != nil && !dead[i] {
				_ = n.Kill()
			}
		}
	}()
	peers := make([]string, ext10Gateways)
	targets := make([]string, ext10Gateways)
	for i := range nodes {
		if nodes[i], err = newNode(i, "", ""); err != nil {
			return nil, err
		}
		peers[i] = nodes[i].ControlURL()
	}
	for i, n := range nodes {
		if err := n.Start(peers); err != nil {
			return nil, err
		}
		targets[i] = n.GatewayURL()
	}
	// served counts the requests the live nodes routed to each backend.
	served := func() []int64 {
		counts := make([]int64, len(machines))
		for i, n := range nodes {
			if !dead[i] {
				for j, c := range n.Gateway().Metrics().BackendRequests {
					counts[j] += c
				}
			}
		}
		return counts
	}

	out := &fleetOutcome{failover: -1}
	var clockAt time.Time
	var baseEpoch uint64
	clockRunning := func() bool { return !clockAt.IsZero() && out.failover < 0 }
	// sample holds the window open while the failover clock runs.
	sample := func() (bool, error) {
		for _, id := range sc.watch {
			if !dead[id] && !nodes[id].QuorumOK() {
				out.quorumLoss = true
			}
		}
		if !clockRunning() {
			return false, nil
		}
		lead := nodes[1].Leader()
		agreed := lead >= 0
		for _, id := range []int{1, 2} {
			e, _ := nodes[id].TableEpoch()
			agreed = agreed && !dead[id] && nodes[id].Leader() == lead && e > baseEpoch
		}
		switch {
		case agreed:
			out.failover = time.Since(clockAt).Seconds()
		case time.Since(clockAt) > deadline:
			return false, fmt.Errorf("nodes 1 and 2 did not agree on a leader past epoch %d within %v of the %s",
				baseEpoch, deadline, sc.clockFrom)
		}
		return clockRunning(), nil
	}
	// A follower forwards a membership op to the leader with a 2.25 s
	// timeout; this one lets its answer come back.
	client := &http.Client{Timeout: 3 * time.Second}
	defer client.CloseIdleConnections()
	var mark []int64
	do := func(st faultStep) error {
		if st.kind == sc.clockBase {
			baseEpoch, _ = nodes[1].TableEpoch()
		}
		if st.kind == sc.clockFrom {
			clockAt = time.Now()
		}
		switch st.kind {
		case stepPartition:
			return nem.Set(dist.NemesisEvent{Partition: st.groups})
		case stepHeal:
			return nem.Set(dist.NemesisEvent{})
		case stepKill:
			dead[st.target] = true
			if err := nodes[st.target].Kill(); err != nil {
				return fmt.Errorf("kill node %d: %w", st.target, err)
			}
		case stepRestart:
			n, err := newNode(st.target, strings.TrimPrefix(peers[st.target], "http://"),
				strings.TrimPrefix(targets[st.target], "http://"))
			if err == nil {
				nodes[st.target], dead[st.target] = n, false
				err = n.Start(peers)
			}
			if err != nil {
				return fmt.Errorf("restart node %d: %w", st.target, err)
			}
		case stepLeave, stepJoin:
			// The highest-ID replica is always a follower, so membership ops
			// exercise the forwarding path too.
			return postMachineOp(client, peers[ext10Gateways-1], st.kind.String(), machines[st.target].URL)
		case stepMark:
			mark = served()
		}
		return nil
	}

	load, err := runWindow(serve.LoadConfig{
		Targets:  targets,
		Arrivals: ext10Arrivals,
		Duration: win,
		Warmup:   win / 8,
		Seed:     seed,
	}, sc.steps, do, sample)
	if err != nil {
		return nil, err
	}

	out.loadTotals = totalsOf(load)
	out.mean, out.failovers = load.Mean, load.Failovers
	for i, n := range nodes {
		out.elections += n.Elections()
		if e, _ := n.TableEpoch(); !dead[i] && e > out.finalEpoch {
			out.finalEpoch = e
		}
	}
	if mark != nil {
		out.post = served()
		for j := range out.post {
			out.post[j] -= mark[j]
		}
	}
	evs := tr.Events()
	out.auditEvents, out.auditViolations = len(evs), len(audit.Check(evs))
	return out, nil
}

// postMachineOp posts one membership op to a replica's control plane,
// retrying briefly through leadership churn (503s).
func postMachineOp(client *http.Client, ctrl, op, url string) error {
	body, err := fleet.EncodeMachineOp(fleet.MachineOp{Op: op, URL: url})
	if err != nil {
		return err
	}
	var last error
	for attempt := 0; attempt < 5; attempt++ {
		resp, err := client.Post(ctrl+"/fleet/machines", "application/json", bytes.NewReader(body))
		if err != nil {
			last = err
		} else {
			out, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(out))
			if resp.StatusCode != http.StatusServiceUnavailable {
				break
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("membership %s %s: %w", op, url, last)
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
