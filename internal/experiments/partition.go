package experiments

import (
	"fmt"
	"os"
	"strings"
	"time"

	"nashlb/internal/dist"
	"nashlb/internal/fleet"
	"nashlb/internal/fleet/audit"
	"nashlb/internal/report"
	"nashlb/internal/serve"
)

// ---------------------------------------------------------------------------
// EXT12 — partition tolerance: availability, failover time and audited
// safety under network partitions and partition+crash compounds
// ---------------------------------------------------------------------------

// EXT12 reuses the EXT10 system (Table-1 speed classes at utilization 0.55,
// three gateway replicas) but attacks the control plane's links instead of
// its processes: a deterministic nemesis partitions the fleet mid-window
// while the same seeded load replays against all gateways. Every scenario
// records its control-plane transitions into a Jepsen-lite audit trace and
// the row carries the checker's verdict — availability alone would not catch
// a split-brain that happened to route sensibly.

// Ext12Row is one partition scenario's outcome.
type Ext12Row struct {
	// Scenario names the injected fault pattern.
	Scenario string `json:"scenario"`
	// Sent, OK, Shed, Failed and Availability are the fleet-wide request
	// accounting of EXT10: availability counts well-formed answers
	// (OK + deliberate sheds) over everything sent.
	Sent         int64   `json:"sent"`
	OK           int64   `json:"ok"`
	Shed         int64   `json:"shed"`
	Failed       int64   `json:"failed"`
	Availability float64 `json:"availability"`
	// MeanSeconds is the mean response time of OK requests; Failovers counts
	// client-side transport failovers between gateways.
	MeanSeconds float64 `json:"mean_seconds"`
	Failovers   int64   `json:"failovers"`
	// Elections sums leadership assumptions fleet-wide; FinalEpoch is the
	// highest table epoch installed on any node at the end.
	Elections  int64  `json:"elections"`
	FinalEpoch uint64 `json:"final_epoch"`
	// FailoverSeconds is the time from the fault (partition start, or the
	// crashed node's restart in the compound scenario) until the majority
	// side had a leader and a strictly newer epoch installed (-1 when the
	// scenario deposes nobody).
	FailoverSeconds float64 `json:"failover_seconds"`
	// QuorumLossObserved reports whether some node correctly dropped into
	// degraded minority mode during the scenario.
	QuorumLossObserved bool `json:"quorum_loss_observed"`
	// AuditEvents and AuditViolations are the safety checker's verdict over
	// the scenario's full control-plane trace; any violation is a bug.
	AuditEvents     int `json:"audit_events"`
	AuditViolations int `json:"audit_violations"`
}

// Ext12Result is the partition fault grid. Its JSON form is the
// ext12_partition section of BENCH_serve.json.
type Ext12Result struct {
	Experiment string    `json:"experiment"`
	Rates      []float64 `json:"rates"`
	Arrivals   []float64 `json:"arrivals"`
	Gateways   int       `json:"gateways"`
	// WindowSeconds is each scenario's measured window.
	WindowSeconds float64    `json:"window_seconds"`
	Rows          []Ext12Row `json:"scenarios"`
}

// ext12Scenario schedules one scenario's faults as fractions of the window.
type ext12Scenario struct {
	name      string
	partition [][]int // nemesis groups cut in at partFrac (nil = no partition)
	partFrac  float64
	healFrac  float64
	// The compound scenario kills node crashID at crashFrac and restarts it
	// from its durable snapshot (same control and gateway addresses) at
	// restartFrac, while the partition still isolates node 0.
	crash       bool
	crashID     int
	crashFrac   float64
	restartFrac float64
	// deposes says the fault forces a leadership change, so FailoverSeconds
	// is measured (from the partition start, or from the restart when
	// crashing).
	deposes bool
}

// Ext12 measures partition tolerance across four scenarios: a clean
// baseline, a minority partition (one follower isolated — the data plane
// must not notice), a leader-side partition (the majority must depose and
// re-elect while the minority serves degraded), and a partition compounded
// with a crash+durable-restart (the restarted node resumes from its
// snapshot and re-forms a quorum with the other majority node while the old
// leader is still cut off). Each scenario replays the same seeded load.
func Ext12(seed uint64, quick bool) (*Ext12Result, error) {
	win := 16 * time.Second
	if quick {
		win = 6 * time.Second
	}
	scenarios := []ext12Scenario{
		{name: "clean"},
		{name: "minority partition", partition: [][]int{{2}}, partFrac: 0.25, healFrac: 0.65},
		{name: "leader partition", partition: [][]int{{0}}, partFrac: 0.25, healFrac: 0.65,
			deposes: true},
		{name: "partition+crash", partition: [][]int{{0}}, partFrac: 0.15, healFrac: 0.75,
			crash: true, crashID: 1, crashFrac: 0.3, restartFrac: 0.5, deposes: true},
	}
	res := &Ext12Result{
		Experiment:    "ext12_partition",
		Rates:         append([]float64(nil), ext10Rates...),
		Arrivals:      append([]float64(nil), ext10Arrivals...),
		Gateways:      ext10Gateways,
		WindowSeconds: win.Seconds(),
	}
	for _, sc := range scenarios {
		row, err := ext12Run(sc, seed, win)
		if err != nil {
			return nil, fmt.Errorf("ext12 %s: %w", sc.name, err)
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// ext12Chaos is what the fault-injection goroutine reports back.
type ext12Chaos struct {
	err             error
	failoverSeconds float64
	sawQuorumLoss   bool
}

// ext12Run measures one scenario: live backends, a three-node fleet over
// them with the nemesis wired into every control link, seeded open-loop
// load, the scenario's partition/crash/restart events on schedule, and the
// audit verdict over the merged trace.
func ext12Run(sc ext12Scenario, seed uint64, win time.Duration) (*Ext12Row, error) {
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
		b, err := serve.NewBackend(serve.BackendConfig{Rate: mu, Seed: seed + uint64(12000+j)})
		if err != nil {
			return nil, err
		}
		if err := b.Start(); err != nil {
			return nil, err
		}
		backends[j] = b
		machines[j] = fleet.Machine{URL: b.URL(), Rate: mu, Active: true}
	}

	// The nemesis schedule is compiled up front (partition at its own t=0,
	// heal after the partitioned interval) and armed at partFrac.
	var nem *dist.Nemesis
	if sc.partition != nil {
		healAfter := time.Duration((sc.healFrac - sc.partFrac) * float64(win))
		var err error
		nem, err = dist.NewNemesis(ext10Gateways, seed+777, []dist.NemesisEvent{
			{At: 0, Partition: sc.partition},
			{At: healAfter},
		})
		if err != nil {
			return nil, err
		}
	}
	tr := &audit.Trace{}

	var durableDir string
	if sc.crash {
		dir, err := os.MkdirTemp("", "ext12-durable-")
		if err != nil {
			return nil, err
		}
		durableDir = dir
		defer os.RemoveAll(dir)
	}

	mkNode := func(id int, ctrlAddr, gwAddr string) (*fleet.Node, error) {
		cfg := fleet.Config{
			ID:       id,
			Machines: machines,
			Arrivals: ext10Arrivals,
			Gateway:  serve.GatewayConfig{Seed: seed + uint64(id), Timeout: 2 * time.Second, Addr: gwAddr},
			// Fast estimate tracking, as in EXT10.
			EstimateAlpha: 0.5,
			EstimateEvery: 100 * time.Millisecond,
			Addr:          ctrlAddr,
			Seed:          seed + 100 + uint64(id),
			Trace:         tr,
		}
		if nem != nil {
			cfg.Link = nem
		}
		if sc.crash && id == sc.crashID {
			cfg.DurableDir = durableDir
		}
		return fleet.NewNode(cfg)
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
		n, err := mkNode(i, "", "")
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

	start := time.Now()
	at := func(frac float64) {
		if d := time.Until(start.Add(time.Duration(frac * float64(win)))); d > 0 {
			time.Sleep(d)
		}
	}
	// waitMajority polls until the given nodes agree on a leader among
	// themselves with an installed epoch beyond `after`.
	waitMajority := func(members []int, after uint64, deadline time.Duration) bool {
		until := time.Now().Add(deadline)
		for time.Now().Before(until) {
			ok := true
			lead := nodes[members[0]].Leader()
			for _, id := range members {
				e, _ := nodes[id].TableEpoch()
				if l := nodes[id].Leader(); l != lead || l < 0 || e <= after {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
			time.Sleep(15 * time.Millisecond)
		}
		return false
	}

	chaosDone := make(chan ext12Chaos, 1)
	go func() {
		var out ext12Chaos
		out.failoverSeconds = -1
		defer func() { chaosDone <- out }()
		if nem == nil {
			return
		}
		at(sc.partFrac)
		epochAtPart, _ := nodes[1].TableEpoch()
		partStart := time.Now()
		nem.Start()

		if sc.crash {
			// Compound: the partition isolates node 0; then the durable node
			// crashes, leaving the last node below quorum (it must degrade,
			// not elect itself); the durable node restarts from its snapshot
			// at the same addresses and re-forms a majority with it.
			at(sc.crashFrac)
			ctrlAddr := strings.TrimPrefix(nodes[sc.crashID].ControlURL(), "http://")
			gwAddr := nodes[sc.crashID].Gateway().Addr()
			if err := nodes[sc.crashID].Kill(); err != nil {
				out.err = fmt.Errorf("crash node %d: %w", sc.crashID, err)
				return
			}
			nodes[sc.crashID] = nil
			// While it is down, the remaining connected node is a minority.
			lossDeadline := start.Add(time.Duration(sc.restartFrac * float64(win)))
			for time.Now().Before(lossDeadline) {
				if !nodes[2].QuorumOK() {
					out.sawQuorumLoss = true
					break
				}
				time.Sleep(15 * time.Millisecond)
			}
			at(sc.restartFrac)
			restartAt := time.Now()
			n, err := mkNode(sc.crashID, ctrlAddr, gwAddr)
			if err != nil {
				out.err = fmt.Errorf("restart node %d: %w", sc.crashID, err)
				return
			}
			if err := n.Start(peers); err != nil {
				out.err = fmt.Errorf("restart node %d: %w", sc.crashID, err)
				return
			}
			nodes[sc.crashID] = n
			if !waitMajority([]int{1, 2}, epochAtPart, 4*time.Second) {
				out.err = fmt.Errorf("majority {1,2} did not re-form within 4s of the restart")
				return
			}
			out.failoverSeconds = time.Since(restartAt).Seconds()
		} else if sc.deposes {
			// Leader partition: the majority side must depose node 0 and
			// install a newer reign's table.
			if !waitMajority([]int{1, 2}, epochAtPart, 4*time.Second) {
				out.err = fmt.Errorf("majority {1,2} did not re-elect within 4s of the partition")
				return
			}
			out.failoverSeconds = time.Since(partStart).Seconds()
			until := start.Add(time.Duration(sc.healFrac * float64(win)))
			for time.Now().Before(until) {
				if !nodes[0].QuorumOK() {
					out.sawQuorumLoss = true
					break
				}
				time.Sleep(15 * time.Millisecond)
			}
		} else {
			// Minority partition: the isolated follower must degrade.
			until := start.Add(time.Duration(sc.healFrac * float64(win)))
			for time.Now().Before(until) {
				if !nodes[2].QuorumOK() {
					out.sawQuorumLoss = true
					break
				}
				time.Sleep(15 * time.Millisecond)
			}
		}
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

	row := &Ext12Row{
		Scenario:           sc.name,
		MeanSeconds:        load.Mean,
		Failovers:          load.Failovers,
		FailoverSeconds:    chaos.failoverSeconds,
		QuorumLossObserved: chaos.sawQuorumLoss,
	}
	for i := range load.Sent {
		row.Sent += load.Sent[i]
		row.OK += load.OK[i]
		row.Shed += load.Shed[i]
		row.Failed += load.Failed[i]
	}
	if row.Sent > 0 {
		row.Availability = float64(row.OK+row.Shed) / float64(row.Sent)
	}
	for _, n := range nodes {
		if n == nil {
			continue
		}
		row.Elections += n.Elections()
		if e, _ := n.TableEpoch(); e > row.FinalEpoch {
			row.FinalEpoch = e
		}
	}

	evs := tr.Events()
	row.AuditEvents = len(evs)
	row.AuditViolations = len(audit.Check(evs))
	return row, nil
}

// Table renders the partition fault grid.
func (r *Ext12Result) Table() *report.Table {
	t := report.NewTable(fmt.Sprintf(
		"EXT12 — partition tolerance (%d gateways, %gs windows, audited)",
		r.Gateways, r.WindowSeconds),
		"scenario", "sent", "ok", "shed", "failed", "availability", "mean D (s)",
		"failovers", "elections", "epoch", "failover (s)", "quorum loss", "audit ev", "violations")
	for _, row := range r.Rows {
		failover := "-"
		if row.FailoverSeconds >= 0 {
			failover = report.F(row.FailoverSeconds, 3)
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
			failover,
			fmt.Sprintf("%v", row.QuorumLossObserved),
			fmt.Sprintf("%d", row.AuditEvents),
			fmt.Sprintf("%d", row.AuditViolations),
		)
	}
	return t
}
