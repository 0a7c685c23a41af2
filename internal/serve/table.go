package serve

import (
	"errors"
	"fmt"

	"nashlb/internal/core"
	"nashlb/internal/game"
	"nashlb/internal/megascale"
	"nashlb/internal/numeric"
)

// Table is an externally solved routing state, installed atomically by a
// control plane (the gateway fleet): one equilibrium profile over the
// gateway's full machine universe, the active-machine set, and the
// degraded-mode admission decision — all fenced by a monotonically
// increasing (epoch, version) so a deposed leader's straggler table can
// never overwrite a newer one (split-brain prevention, dist.Fence).
type Table struct {
	// Epoch names the leader incarnation that solved this table; Version
	// orders tables within an epoch. InstallTable rejects anything not
	// strictly newer than the last accepted pair with ErrStaleTable.
	Epoch   uint64
	Version uint64
	// Profile is the solved routing profile: one row per user, one column
	// per backend in the gateway's configured universe. Columns of inactive
	// machines must be zero (CheckStrategy enforces row feasibility).
	Profile game.Profile
	// Active marks which machines are in rotation; nil means all. An
	// inactive (drained) machine receives no traffic, even as a per-request
	// fallback — the control plane is emptying it for scale-down.
	Active []bool
	// AdmitFrac in (0, 1) installs degraded-mode shedding admitting only
	// this fraction of OfferedRate; any other value clears shedding. The
	// control plane sets it when the offered load is infeasible for the
	// active capacity.
	AdmitFrac float64
	// OfferedRate is this gateway's offered load in requests/second, sizing
	// the degraded-mode bucket (ignored unless AdmitFrac is in (0, 1)).
	OfferedRate float64
}

// ErrStaleTable reports an InstallTable whose (epoch, version) has been
// superseded by one already installed.
var ErrStaleTable = errors.New("serve: stale routing table (superseded epoch)")

// errNoCapacity reports a reduced game in which no machine has capacity.
var errNoCapacity = errors.New("serve: no machine has capacity")

// SolveTable is the one reduced-game solve-and-shed routine: the gateway's
// health re-solve and the fleet leader's tables both come from it. Machine
// j's capacity is Rates[j] × weights[j] (nil weights count as 1) when it is
// active (nil active means every machine). Once the offered load, the sum of
// arrivals, reaches saturationRho × the total capacity, the table sheds:
// AdmitFrac admits DegradedRho × capacity, and the game is solved for that
// share of every user's arrivals. One megascale solve runs over the machines
// with capacity; the profile's other columns are zero. weights and active,
// when given, have one entry per machine. The table carries Active,
// AdmitFrac and OfferedRate; the caller sets the fence. SolveTable fails
// when no machine has capacity or the solve fails; after a failed solve the
// returned table still carries the admission decision.
func (g *Gateway) SolveTable(arrivals, weights []float64, active []bool) (Table, error) {
	n := len(g.cfg.Rates)
	t := Table{
		Active:      append([]bool(nil), active...),
		AdmitFrac:   1,
		OfferedRate: numeric.Sum(arrivals),
	}
	capacity := make([]float64, n)
	var total float64
	for j, mu := range g.cfg.Rates {
		if active == nil || active[j] {
			capacity[j] = mu
			if weights != nil {
				capacity[j] *= weights[j]
			}
		}
		total += capacity[j]
	}
	if !(total > 0) {
		return t, errNoCapacity
	}
	// Shed when the offered load would push the machines to the saturation
	// threshold the install guard enforces; DegradedRho leaves headroom
	// below it.
	if t.OfferedRate >= total*saturationRho {
		t.AdmitFrac = g.cfg.DegradedRho * total / t.OfferedRate
	}

	var cols []int
	var rates []float64
	for j, c := range capacity {
		if c > 0 {
			cols = append(cols, j)
			rates = append(rates, c)
		}
	}
	admitted := make([]float64, len(arrivals))
	for i, phi := range arrivals {
		admitted[i] = phi * t.AdmitFrac
	}
	sys, err := game.NewSystem(rates, admitted)
	if err != nil {
		return t, fmt.Errorf("serve: reduced game: %w", err)
	}
	// The class-aggregated engine solves one water-filling pass per user
	// class instead of per user, so the cost stays flat as users are added.
	res, err := megascale.SolveSystem(sys, core.Options{Init: core.InitProportional})
	if err == nil && !res.Converged {
		err = fmt.Errorf("no convergence in %d rounds", res.Rounds)
	}
	if err != nil {
		return t, fmt.Errorf("serve: reduced game: %w", err)
	}
	t.Profile = game.NewProfile(len(arrivals), n)
	for i, row := range res.Profile {
		for k, j := range cols {
			t.Profile[i][j] = row[k]
		}
	}
	return t, nil
}

// InstallTable atomically applies a control-plane routing table: the hot-swap
// path of re-equilibration, driven from outside. The fence accepts only
// strictly newer (epoch, version) pairs, so a partitioned old leader pushing
// a stale table is refused and learns it has been deposed. On acceptance the
// active set, the degraded-mode admission and the routing profile swap
// together through installLocked. A gateway that has begun closing advances
// the fence but installs nothing.
func (g *Gateway) InstallTable(t Table) error {
	n, m := len(g.cfg.Backends), len(g.cfg.Arrivals)
	if len(t.Profile) != m {
		return fmt.Errorf("serve: table has %d rows for %d users", len(t.Profile), m)
	}
	if t.Active != nil && len(t.Active) != n {
		return fmt.Errorf("serve: table has %d active flags for %d backends", len(t.Active), n)
	}
	// A fleet leader pushes every solve, so under steady load it re-pushes
	// an unchanged equilibrium every epoch (what nashbench's hot-path
	// re-confirm stretches time). Such a push should not pay alias
	// re-resolution: when the incoming profile is bitwise-identical to the
	// installed one, the pre-resolved table is reused and only the fence,
	// active set and admission state advance.
	table := g.table.Load()
	if table == nil || !table.profile.Equal(t.Profile) {
		var err error
		table, err = newRouteTable(t.Profile, n)
		if err != nil {
			return err
		}
	}

	drained := make([]bool, n)
	for j := range drained {
		drained[j] = t.Active != nil && !t.Active[j]
	}
	g.installMu.Lock()
	defer g.installMu.Unlock()
	if !g.fence.Accept(t.Epoch, t.Version) {
		return ErrStaleTable
	}
	if g.installLocked(table, shedFor(t), drained) {
		g.met.tableInstalls.Add(1)
	}
	return nil
}

// shedFor is a table's degraded-mode admission: AdmitFrac in (0, 1) admits
// AdmitFrac × OfferedRate requests/s and sheds the rest; any other value
// admits everything (nil).
func shedFor(t Table) *shedConfig {
	if t.AdmitFrac > 0 && t.AdmitFrac < 1 {
		return newShedConfig(t.AdmitFrac*t.OfferedRate, t.AdmitFrac, t.OfferedRate)
	}
	return nil
}

// installLocked is the one way routing state changes after NewGateway:
// control-plane tables (after InstallTable's fence), the health layer's
// re-solves and the balancer's best responses all swap through it, with
// installMu held, so no two installs interleave. Once Close has begun it
// stores nothing and reports false. Otherwise it applies drained (nil
// leaves the drained set as it is), then stores the degraded-mode admission
// together with the route table.
func (g *Gateway) installLocked(table *routeTable, shed *shedConfig, drained []bool) bool {
	if g.closing() {
		return false
	}
	for j, d := range drained {
		g.drained[j].Store(d)
	}
	g.shed.Store(shed)
	g.table.Store(table)
	return true
}

// TableEpoch returns the (epoch, version) of the last installed
// control-plane table — (0, 0) when the gateway has only routed locally.
func (g *Gateway) TableEpoch() (epoch, version uint64) {
	return g.fence.Current()
}

// Drain stops admission without stopping service: new requests are refused
// with 503 + Retry-After (callers fail over to a fleet peer) while in-flight
// requests finish; Close then completes the shutdown. Draining is one-way.
func (g *Gateway) Drain() { g.draining.Store(true) }

// Draining reports whether Drain has been called.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// AdmittedPerUser returns the cumulative admitted-request count per user —
// the raw counts a fleet node differentiates over time to estimate this
// gateway's per-user arrival rates (its traffic share of the game).
func (g *Gateway) AdmittedPerUser() []int64 {
	out := make([]int64, len(g.met.userAdmitted))
	for i := range out {
		out[i] = g.met.userAdmitted[i].Load()
	}
	return out
}

// HealthWeights returns the health layer's effective capacity weight per
// backend (nil when the health layer is disabled). The control plane folds
// these into the game as reduced machine capacities.
func (g *Gateway) HealthWeights() []float64 {
	if g.health == nil {
		return nil
	}
	return g.health.weights()
}
