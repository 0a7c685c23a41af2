package experiments

import (
	"fmt"
	"time"

	"nashlb/internal/report"
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
	// FailoverSeconds is the failover clock from the fault (partition start,
	// or the crashed node's restart in the compound scenario) until the
	// majority side, nodes 1 and 2, agreed on a leader with a newer epoch
	// installed than at the partition start (-1 when the scenario deposes
	// nobody).
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
	isolate := func(at float64, node int) faultStep {
		return faultStep{at: at, kind: stepPartition, groups: [][]int{{node}}}
	}
	heal := func(at float64) faultStep { return faultStep{at: at, kind: stepHeal} }
	scenarios := []faultScenario{
		{name: "clean"},
		// The isolated follower must degrade.
		{name: "minority partition", steps: []faultStep{isolate(0.25, 2), heal(0.65)}, watch: []int{2}},
		// The majority must depose node 0 and install a newer reign's table.
		{name: "leader partition", steps: []faultStep{isolate(0.25, 0), heal(0.65)},
			clockFrom: stepPartition, clockBase: stepPartition, watch: []int{0}},
		// With node 0 cut off, the durable node 1 crashes and leaves node 2
		// a minority that must degrade, not elect itself; node 1 restarts
		// from its snapshot at its old addresses and re-forms a majority.
		{name: "partition+crash", steps: []faultStep{
			isolate(0.15, 0),
			{at: 0.3, kind: stepKill, target: 1},
			{at: 0.5, kind: stepRestart, target: 1},
			heal(0.75),
		}, clockFrom: stepRestart, clockBase: stepPartition, watch: []int{2}},
	}
	res := &Ext12Result{
		Experiment:    "ext12_partition",
		Rates:         append([]float64(nil), ext10Rates...),
		Arrivals:      append([]float64(nil), ext10Arrivals...),
		Gateways:      ext10Gateways,
		WindowSeconds: win.Seconds(),
	}
	for _, sc := range scenarios {
		out, err := runFleetFaults(sc, seed, seed+12000, 4*time.Second, win)
		if err != nil {
			return nil, fmt.Errorf("ext12 %s: %w", sc.name, err)
		}
		res.Rows = append(res.Rows, Ext12Row{
			Scenario:           sc.name,
			Sent:               out.sent,
			OK:                 out.ok,
			Shed:               out.shed,
			Failed:             out.failed,
			Availability:       out.share(out.ok + out.shed),
			MeanSeconds:        out.mean,
			Failovers:          out.failovers,
			Elections:          out.elections,
			FinalEpoch:         out.finalEpoch,
			FailoverSeconds:    out.failover,
			QuorumLossObserved: out.quorumLoss,
			AuditEvents:        out.auditEvents,
			AuditViolations:    out.auditViolations,
		})
	}
	return res, nil
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
