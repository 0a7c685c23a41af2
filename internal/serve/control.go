package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"nashlb/internal/dist"
	"nashlb/internal/game"
)

// controlLoop is the gateway's one control loop; one iteration is one
// epoch. Every ProbeEvery it advances the recovery ramps and sends every
// backend one status frame, whose outcomes feed the breakers and depth
// gauges. A change in the effective machine set re-solves the game over the
// survivors (managed: reports it to OnWeights). A complete sweep refreshes
// the saturation estimate and, while health is nominal, feeds the balancer,
// whose best responses install: the paper's periodic NASH run from observed
// run-queue lengths (Remark 2). A breaker trip on the request path kicks
// the loop at once, without a sweep, so survivors take over immediately.
func (g *Gateway) controlLoop() {
	defer g.wg.Done()
	ticker := time.NewTicker(g.cfg.ProbeEvery)
	defer ticker.Stop()
	start := time.Now()
	for {
		var depths []int
		select {
		case <-g.quit:
			return
		case <-ticker.C:
			// Ramps advance before probing: a backend whose trial succeeded
			// last epoch has now carried one full epoch at its current
			// weight, while a trial passing in this sweep re-admits at the
			// first ramp step and keeps it for a whole epoch.
			g.health.advanceRamps()
			depths = g.probeAll()
		case <-g.healthKick:
		}
		if g.closing() {
			return
		}
		w := g.health.weights()
		if !weightsEqual(w, g.lastWeights) {
			if g.cfg.OnWeights != nil {
				// Managed mode: the control plane owns routing. Report the
				// change and keep serving the installed table; per-request
				// fallback already steers around the cut-off machines.
				g.cfg.OnWeights(w)
			} else {
				g.reequilibrate(w)
			}
			g.lastWeights = w
		}
		if depths == nil {
			continue
		}
		g.met.polls.Add(1)
		g.updateSaturation(depths)
		if g.policy == nil || !g.health.nominal() {
			continue
		}
		next := g.policy(time.Since(start).Seconds(), depths, g.Profile())
		if next == nil || !g.installable(next) {
			continue
		}
		table, err := newRouteTable(next, len(g.cfg.Backends))
		if err != nil {
			continue // infeasible best response; keep routing as-is
		}
		// A best response re-routes the admitted load; the degraded-mode
		// admission stays as installed.
		g.installMu.Lock()
		if g.installLocked(table, g.shed.Load(), nil) {
			g.met.rebalances.Add(1)
		}
		g.installMu.Unlock()
	}
}

func weightsEqual(a, b []float64) bool {
	for j := range a {
		if a[j] != b[j] {
			return false
		}
	}
	return true
}

// probeAll actively probes every backend concurrently: closed breakers get
// a routine liveness check, open breakers past their cooldown get the
// single half-open trial. Probe outcomes feed the breakers exactly like
// request outcomes. It returns the depths the backends reported, or nil
// unless every backend answered: the balancer and the saturation estimate
// need a consistent vector. Close aborts a sweep in flight instead of
// waiting out the probe timeout.
func (g *Gateway) probeAll() []int {
	n := len(g.cfg.Backends)
	depths := make([]int, n)
	answered := make([]bool, n)
	var wg sync.WaitGroup
	for j := 0; j < n; j++ {
		switch g.health.brs[j].State() {
		case BreakerOpen:
			if !g.health.brs[j].Trial() {
				continue // still cooling down
			}
		case BreakerHalfOpen:
			continue // a trial is already in flight
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := g.probe(j)
			errText := ""
			if err != nil {
				errText = err.Error()
			}
			g.health.noteProbe(j, err == nil)
			g.reportHealth(j, err == nil, errText)
			depths[j], answered[j] = d, err == nil
		}()
	}
	wg.Wait()
	for _, ok := range answered {
		if !ok {
			return nil
		}
	}
	return depths
}

// probe performs one health check with the shared retry-horizon arithmetic:
// the number of in-probe retries is whatever backoff delays fit inside one
// ProbeTimeout (dist.Backoff.AttemptsFor), so probe cadence and request
// retries are configured by the same two knobs. Each attempt is a status
// query, so a passing probe returns the backend's queue depth.
func (g *Gateway) probe(j int) (int, error) {
	backoff := dist.Backoff{Base: g.cfg.RetryBase, Max: g.cfg.RetryMax}
	attempts := 1 + backoff.AttemptsFor(g.cfg.ProbeTimeout)
	var err error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			select {
			case <-time.After(backoff.Next()):
			case <-g.ctx.Done():
				return 0, errors.New("gateway shutting down")
			}
		}
		var depth int
		if depth, err = g.queryStatus(j, g.cfg.ProbeTimeout); err == nil {
			return depth, nil
		}
	}
	return 0, err
}

// queryStatus sends backend j one status frame, under a deadline timeout
// from now and the gateway context (Close aborts it), and returns the jobs
// in system it reports, which also set the backend's depth gauge. A reply
// other than ok (closing, or a chaos proxy's injected failure) is an error.
func (g *Gateway) queryStatus(j int, timeout time.Duration) (int, error) {
	g.met.connAttempts[j].Add(1)
	r, err := g.pools[j].roundTrip(g.ctx, g.frameID.Add(1), kindStatus, time.Now().Add(timeout))
	if err != nil {
		return 0, err
	}
	if r.Status != statusOK {
		return 0, fmt.Errorf("status query answered %s", r.Status)
	}
	if !(r.Value >= 0 && r.Value <= math.MaxInt32) || r.Value != math.Trunc(r.Value) {
		return 0, fmt.Errorf("status query answered depth %g", r.Value)
	}
	g.met.queueDepth[j].Store(int64(r.Value))
	return int(r.Value), nil
}

// reequilibrate re-solves the load-balancing game over the effective
// machine set — each backend's capacity scaled by its health weight —
// through SolveTable and hot-swaps the routing table, exactly as
// dist.Supervise re-converges the reduced game after an ejection. A table
// that sheds installs its degraded-mode admission with it, so the installed
// equilibrium is always feasible. With every backend cut off the gateway
// sheds everything and keeps its table (each pick fails closed with 503
// anyway) until a trial passes. A failed solve falls back to proportional
// renormalization of the current profile, which at least removes the dead
// machines.
func (g *Gateway) reequilibrate(weights []float64) {
	t, err := g.SolveTable(g.cfg.Arrivals, weights, nil)
	shed := shedFor(t)
	switch {
	case errors.Is(err, errNoCapacity):
		shed = &shedConfig{AdmitFrac: 0, RetryAfter: "1"}
	case err != nil:
		g.met.solveFailures.Add(1)
		alive := make([]bool, len(weights))
		muEff := make([]float64, len(weights))
		for j, w := range weights {
			alive[j] = w > 0
			muEff[j] = g.cfg.Rates[j] * w
		}
		t.Profile = renormalizeExclude(g.Profile(), alive, muEff)
	}
	var table *routeTable
	if t.Profile != nil {
		if table, err = newRouteTable(t.Profile, len(g.cfg.Rates)); err != nil {
			return
		}
	}
	g.installMu.Lock()
	defer g.installMu.Unlock()
	if table == nil {
		table = g.table.Load()
	}
	if g.installLocked(table, shed, nil) {
		g.met.reequils.Add(1)
	}
}

// installable guards routing-table installs: unlike the users' best
// responses — computed against *estimated* loads — the gateway knows the
// configured arrival rates, so it can refuse a profile whose implied true
// utilization would push some backend past the saturation threshold. Best
// responses built on transiently underestimated loads (a momentarily
// drained queue) would otherwise drive a backend to the edge of capacity
// until the next correction.
func (g *Gateway) installable(p game.Profile) bool {
	for j, l := range g.sys.Loads(p) {
		if l >= g.cfg.Rates[j]*saturationRho {
			return false
		}
	}
	return true
}

// updateSaturation smooths the swept depths, inverts them to load estimates
// (Remark 2), and raises the saturation flag when every backend's estimated
// utilization is at or above saturationRho.
func (g *Gateway) updateSaturation(depths []int) {
	obs := make([]float64, len(depths))
	for j, d := range depths {
		obs[j] = g.smooth[j].Observe(float64(d))
	}
	loads, err := g.est.Loads(obs)
	if err != nil {
		return
	}
	saturated := true
	for j, l := range loads {
		if l < g.cfg.Rates[j]*saturationRho {
			saturated = false
			break
		}
	}
	g.satur.Store(saturated)
}

// saturationRho is the estimated-utilization threshold at which a backend
// counts as saturated for admission control. The queue-length inversion
// lambda = mu*L/(1+L) approaches mu only asymptotically, so the threshold
// sits just below 1 (L = 19 maps to rho 0.95).
const saturationRho = 0.95
