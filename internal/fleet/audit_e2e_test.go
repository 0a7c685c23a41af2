package fleet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"nashlb/internal/dist"
	"nashlb/internal/fleet/audit"
	"nashlb/internal/testutil"
)

// auditSchedule is one seeded chaos scenario: a nemesis schedule over a
// 3-node fleet, optionally compounded with a mid-window crash.
type auditSchedule struct {
	name   string
	events []dist.NemesisEvent
	crash  int // node to Kill mid-window, -1 for none
}

// scheduleFor derives the k-th deterministic schedule. Five archetypes —
// symmetric split, asymmetric one-way cut, partial link loss, rolling
// partition, partition compounded with a crash — each rotated across target
// nodes by k, all healing before the window ends.
func scheduleFor(k int) auditSchedule {
	isolate := k % 3
	heal := dist.NemesisEvent{At: 500 * time.Millisecond}
	switch k % 5 {
	case 0:
		return auditSchedule{
			name: fmt.Sprintf("symmetric-split-%d", isolate),
			events: []dist.NemesisEvent{
				{At: 0, Partition: [][]int{{isolate}}},
				heal,
			},
			crash: -1,
		}
	case 1:
		return auditSchedule{
			name: fmt.Sprintf("one-way-cut-%d-%d", isolate, (isolate+1)%3),
			events: []dist.NemesisEvent{
				{At: 0, Cuts: [][2]int{{isolate, (isolate + 1) % 3}}},
				heal,
			},
			crash: -1,
		}
	case 2:
		return auditSchedule{
			name: "lossy-links-35pct",
			events: []dist.NemesisEvent{
				{At: 0, Loss: 0.35},
				{At: 600 * time.Millisecond},
			},
			crash: -1,
		}
	case 3:
		return auditSchedule{
			name: fmt.Sprintf("rolling-partition-%d", isolate),
			events: []dist.NemesisEvent{
				{At: 0, Partition: [][]int{{isolate}}},
				{At: 250 * time.Millisecond, Partition: [][]int{{(isolate + 1) % 3}}},
				{At: 550 * time.Millisecond},
			},
			crash: -1,
		}
	default:
		return auditSchedule{
			name: fmt.Sprintf("partition-plus-crash-%d", isolate),
			events: []dist.NemesisEvent{
				{At: 0, Partition: [][]int{{0}}},
				heal,
			},
			crash: isolate,
		}
	}
}

// runAuditSchedule drives one fleet through one schedule and returns the
// audit verdict. It never calls t.Fatal — it runs on a worker goroutine.
func runAuditSchedule(k int) (violations []audit.Violation, events int, err error) {
	sched := scheduleFor(k)
	nem, err := dist.NewNemesis(3, uint64(k+1), sched.events)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", sched.name, err)
	}
	tr := &audit.Trace{}

	nodes := make([]*Node, 3)
	peers := make([]string, 3)
	for i := range nodes {
		n, err := NewNode(Config{
			ID:             i,
			Machines:       testMachines(20, 40),
			Arrivals:       []float64{3, 2},
			HeartbeatEvery: 15 * time.Millisecond,
			MaxMisses:      2,
			SolveEvery:     50 * time.Millisecond,
			EstimateEvery:  50 * time.Millisecond,
			Seed:           uint64(1000*k + 17),
			Link:           nem,
			Trace:          tr,
		})
		if err != nil {
			return nil, 0, fmt.Errorf("%s: node %d: %w", sched.name, i, err)
		}
		nodes[i] = n
		peers[i] = n.ControlURL()
	}
	defer func() {
		for _, n := range nodes {
			if n != nil {
				_ = n.Kill()
			}
		}
	}()
	for _, n := range nodes {
		if err := n.Start(peers); err != nil {
			return nil, 0, fmt.Errorf("%s: start: %w", sched.name, err)
		}
	}

	// Let the fleet stabilize on its first reign, then unleash the schedule.
	// A fleet that never settles fails the schedule rather than auditing one
	// that began mid-election. This runs on a worker goroutine, so it
	// reports an error where testutil.WaitFor would call t.Fatal.
	if !testutil.Eventually(3*time.Second, func() bool {
		return nodes[0].Leader() == 0 && nodes[1].Leader() == 0 && nodes[2].Leader() == 0
	}) {
		return nil, 0, fmt.Errorf("%s: no first reign of leader 0 within 3s", sched.name)
	}
	nem.Start()
	if sched.crash >= 0 {
		time.Sleep(300 * time.Millisecond)
		_ = nodes[sched.crash].Kill()
		nodes[sched.crash] = nil
		time.Sleep(500 * time.Millisecond)
	} else {
		time.Sleep(800 * time.Millisecond)
	}
	// Post-heal settle: survivors re-elect and reconverge while the trace
	// keeps recording.
	time.Sleep(300 * time.Millisecond)

	for _, n := range nodes {
		if n != nil {
			_ = n.Kill()
		}
	}
	evs := tr.Events()
	return audit.Check(evs), len(evs), nil
}

// The Jepsen-lite sweep: twenty seeded nemesis schedules — splits, one-way
// cuts, lossy links, rolling partitions, partition+crash compounds — each
// audited for the four safety invariants (one leader per generation, no
// epoch regression, fenced installs in order, no minority distributions).
// Safety must hold under every schedule regardless of timing; liveness churn
// (extra elections, transient leaderlessness) is expected and not a failure.
func TestFleetAuditTwentyNemesisSchedules(t *testing.T) {
	const schedules = 20
	type result struct {
		name       string
		violations []audit.Violation
		events     int
		err        error
	}
	results := make([]result, schedules)

	// The schedules are sleep-bound, so a worker pool overlaps them even on
	// one CPU; the cap keeps heartbeat timing honest under load.
	sem := make(chan struct{}, 5)
	var wg sync.WaitGroup
	for k := 0; k < schedules; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			vs, n, err := runAuditSchedule(k)
			results[k] = result{name: scheduleFor(k).name, violations: vs, events: n, err: err}
		}(k)
	}
	wg.Wait()

	totalEvents := 0
	for k, r := range results {
		if r.err != nil {
			t.Errorf("schedule %d (%s): %v", k, r.name, r.err)
			continue
		}
		totalEvents += r.events
		if len(r.violations) != 0 {
			t.Errorf("schedule %d (%s): %d safety violations over %d events:", k, r.name, len(r.violations), r.events)
			for _, v := range r.violations {
				t.Errorf("  [%s] %s", v.Rule, v.Detail)
			}
		}
	}
	if totalEvents == 0 {
		t.Fatal("auditor saw no events at all; the trace hook is dead")
	}
	t.Logf("audited %d schedules, %d trace events, 0 violations", schedules, totalEvents)
}

// A focused conformance check that the trace hook records the canonical
// clean history: acquire, distribute, installs — and that the auditor
// accepts it.
func TestFleetAuditCleanRun(t *testing.T) {
	tr := &audit.Trace{}
	nodes := startFleet(t, 3, testMachines(20, 40), []float64{3, 2}, func(c *Config) {
		c.Trace = tr
	})
	waitLeader(t, nodes, 0, 5*time.Second)
	testutil.WaitFor(t, 5*time.Second, "first reign's table everywhere", func() bool {
		for _, n := range nodes {
			if e, _ := n.TableEpoch(); e < 1 {
				return false
			}
		}
		return true
	})
	evs := tr.Events()
	var sawAcquire, sawDistribute, sawInstall bool
	for _, e := range evs {
		switch e.Kind {
		case audit.LeaderAcquire:
			sawAcquire = true
		case audit.Distribute:
			sawDistribute = true
		case audit.Install:
			sawInstall = true
		}
	}
	if !sawAcquire || !sawDistribute || !sawInstall {
		t.Fatalf("clean run trace incomplete: acquire=%v distribute=%v install=%v over %d events",
			sawAcquire, sawDistribute, sawInstall, len(evs))
	}
	if vs := audit.Check(evs); len(vs) != 0 {
		t.Fatalf("clean run produced violations: %+v", vs)
	}
}
