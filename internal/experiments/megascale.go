package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"nashlb/internal/core"
	"nashlb/internal/megascale"
	"nashlb/internal/report"
)

// ---------------------------------------------------------------------------
// EXT11 — planet-scale equilibrium: class-aggregated solve-time and memory
// curves up to 10k machines x 1M users
// ---------------------------------------------------------------------------

// Ext11Row is one point of the scaling sweep.
type Ext11Row struct {
	// Machines, Classes and Users describe the system size: Users individual
	// selfish users aggregated into Classes user classes over Machines
	// M/M/1 machines at utilization 0.7.
	Machines int   `json:"machines"`
	Classes  int   `json:"classes"`
	Users    int64 `json:"users"`
	// Rounds, Solves and Skips summarize the incremental best-reply run:
	// round-robin sweeps to convergence, per-class best responses actually
	// recomputed, and class visits skipped because no machine in the class's
	// span changed since its last solve.
	Rounds int   `json:"rounds"`
	Solves int64 `json:"solves"`
	Skips  int64 `json:"skips"`
	// SolveSeconds is the wall-clock solve time; StateMB the solver's
	// resident working state (per-type profile + caches); HeapDeltaMB the heap
	// growth across the solve as seen by runtime.MemStats.
	SolveSeconds float64 `json:"solve_seconds"`
	StateMB      float64 `json:"state_mb"`
	HeapDeltaMB  float64 `json:"heap_delta_mb"`
	// OverallTime is the population's expected response time D at the
	// computed equilibrium.
	OverallTime float64 `json:"overall_seconds"`
	// MaxDeviation is the equilibrium certificate: the largest relative
	// response-time improvement any single user could get by unilaterally
	// re-optimizing against the final loads.
	MaxDeviation float64 `json:"max_deviation"`
	// DenseLoadDev is the largest per-machine load deviation against the
	// dense per-user core.Solve on the expanded system, as a fraction of the
	// total arrival rate; only measured where the expansion is tractable
	// (nil means not measured).
	DenseLoadDev *float64 `json:"dense_load_dev,omitempty"`
}

// Ext11Result is the scaling sweep. Its JSON form is the ext11 section of
// BENCH_core.json.
type Ext11Result struct {
	Experiment string `json:"experiment"`
	// Utilization is the offered load fraction shared by every row.
	Utilization float64 `json:"utilization"`
	// Epsilon notes the convergence bar as a per-user tolerance; each row's
	// absolute tolerance is Epsilon times its user count (the class norm
	// aggregates member shifts, so the bar must scale with the population).
	Epsilon float64    `json:"eps_per_user"`
	Rows    []Ext11Row `json:"points"`
}

// ext11PerUserEps is each row's convergence tolerance per user: the solver's
// norm sums per-member response-time shifts, so a fixed per-user quality bar
// becomes an absolute epsilon of ext11PerUserEps * users.
const ext11PerUserEps = 1e-6

// ext11System builds the deterministic sweep system: machines cycle through
// the paper's Table-1 speed classes, classes get slightly different per-member
// weights (so they stay distinct classes), and counts split the population
// evenly. Total offered load is rho times capacity.
func ext11System(machines, classes int, users int64, rho float64) (*megascale.ClassSystem, error) {
	speeds := []float64{10, 20, 50, 100}
	rates := make([]float64, machines)
	var capacity float64
	for j := range rates {
		rates[j] = speeds[j%len(speeds)]
		capacity += rates[j]
	}
	weights := make([]float64, classes)
	var wsum float64
	for c := range weights {
		weights[c] = 1 + 0.1*float64(c%7)
		wsum += weights[c]
	}
	per := users / int64(classes)
	rem := users % int64(classes)
	cls := make([]megascale.Class, classes)
	for c := range cls {
		count := per
		if int64(c) < rem {
			count++
		}
		if count < 1 {
			return nil, fmt.Errorf("ext11: %d users cannot fill %d classes", users, classes)
		}
		// The class's share of the offered load is proportional to its
		// weight factor; Phi is that share spread over its members.
		share := rho * capacity * weights[c] / wsum
		cls[c] = megascale.Class{Phi: share / float64(count), Count: int(count)}
	}
	return megascale.NewClassSystem(rates, cls)
}

// Ext11 sweeps the class-aggregated solver to planet scale: machine counts to
// 10k and populations to one million users, reporting solve time, solver
// state, heap growth, incremental solve/skip counts, and an equilibrium
// certificate per point. The smallest point is also solved densely (one row
// per user) to pin the class engine's machine loads to the per-user
// ground truth. Quick mode keeps the headline 10k x 1M point and drops the
// widest class sweeps.
func Ext11(quick bool) (*Ext11Result, error) {
	type point struct {
		machines, classes int
		users             int64
		dense             bool
	}
	points := []point{
		// The dense cross-check point stays small: the expanded per-user
		// solve is quadratic in the population and exists here only to pin
		// the class engine to the ground truth.
		{machines: 50, classes: 10, users: 100, dense: true},
		{machines: 100, classes: 20, users: 10_000},
		{machines: 1000, classes: 100, users: 100_000},
		{machines: 10_000, classes: 200, users: 1_000_000},
	}
	if !quick {
		points = append(points,
			point{machines: 2000, classes: 1000, users: 1_000_000},
			point{machines: 10_000, classes: 1000, users: 1_000_000},
		)
	}

	const rho = 0.7
	res := &Ext11Result{Experiment: "ext11_megascale", Utilization: rho, Epsilon: ext11PerUserEps}
	for _, pt := range points {
		row, err := ext11Point(pt.machines, pt.classes, pt.users, rho, pt.dense)
		if err != nil {
			return nil, fmt.Errorf("ext11 %dx%d: %w", pt.machines, pt.users, err)
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// ext11Point measures one sweep point.
func ext11Point(machines, classes int, users int64, rho float64, dense bool) (*Ext11Row, error) {
	cs, err := ext11System(machines, classes, users, rho)
	if err != nil {
		return nil, err
	}
	eps := ext11PerUserEps * float64(users)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	out, err := megascale.Solve(cs, megascale.Options{Init: core.InitProportional, Epsilon: eps})
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	if !out.Converged {
		return nil, fmt.Errorf("did not converge in %d rounds", out.Rounds)
	}

	row := &Ext11Row{
		Machines:     machines,
		Classes:      classes,
		Users:        users,
		Rounds:       out.Rounds,
		Solves:       out.Solves,
		Skips:        out.Skips,
		SolveSeconds: elapsed.Seconds(),
		StateMB:      float64(out.StateBytes) / (1 << 20),
		HeapDeltaMB:  float64(after.HeapAlloc) - float64(before.HeapAlloc),
		OverallTime:  out.OverallTime,
	}
	row.HeapDeltaMB /= 1 << 20

	// Equilibrium certificate: largest relative unilateral improvement.
	if _, dev, err := megascale.VerifyEquilibrium(cs, out.Profile, ext11PerUserEps); err != nil {
		return nil, err
	} else {
		row.MaxDeviation = dev
	}

	if dense {
		dev, err := ext11DenseCheck(cs, out, eps)
		if err != nil {
			return nil, err
		}
		row.DenseLoadDev = &dev
	}
	return row, nil
}

// ext11DenseCheck expands the class system to one user per row, solves it
// with the dense per-user engine at the same tolerance, and returns the
// largest per-machine load deviation between the two equilibria.
func ext11DenseCheck(cs *megascale.ClassSystem, out *megascale.Result, eps float64) (float64, error) {
	sys, err := cs.ExpandSystem()
	if err != nil {
		return 0, err
	}
	denseRes, err := core.Solve(sys, core.Options{Init: core.InitProportional, Epsilon: eps})
	if err != nil {
		return 0, err
	}
	denseLoads := sys.Loads(denseRes.Profile)
	classLoads := out.Profile.Loads(cs)
	var dev float64
	for j := range denseLoads {
		if d := math.Abs(denseLoads[j] - classLoads[j]); d > dev {
			dev = d
		}
	}
	return dev / cs.TotalArrival(), nil
}

// Table renders the scaling sweep.
func (r *Ext11Result) Table() *report.Table {
	t := report.NewTable(fmt.Sprintf(
		"EXT11 — planet-scale class-aggregated equilibrium (rho=%.2f, eps=%g/user)",
		r.Utilization, r.Epsilon),
		"machines", "classes", "users", "rounds", "solves", "skips",
		"solve (s)", "state (MB)", "heap +MB", "overall D (s)", "max dev", "dense load dev")
	for _, row := range r.Rows {
		denseDev := "-"
		if row.DenseLoadDev != nil {
			denseDev = report.F(*row.DenseLoadDev, 3)
		}
		t.AddRow(
			fmt.Sprintf("%d", row.Machines),
			fmt.Sprintf("%d", row.Classes),
			fmt.Sprintf("%d", row.Users),
			fmt.Sprintf("%d", row.Rounds),
			fmt.Sprintf("%d", row.Solves),
			fmt.Sprintf("%d", row.Skips),
			report.F(row.SolveSeconds, 4),
			report.F(row.StateMB, 4),
			report.F(row.HeapDeltaMB, 4),
			report.F(row.OverallTime, 5),
			report.F(row.MaxDeviation, 3),
			denseDev,
		)
	}
	return t
}

// BenchJSON renders the sweep in machine-readable form for BENCH_core.json.
func (r *Ext11Result) BenchJSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
