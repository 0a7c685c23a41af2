package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"nashlb/internal/game"
	"nashlb/internal/numeric"
)

// solveCase is one point of SolveTable's digest grid.
type solveCase struct {
	rates, arrivals, weights []float64
	active                   []bool
	rho                      float64 // DegradedRho
}

// gridRates are the grid's machine sets; the last repeats rates, so the
// megascale solver groups its machines into types.
var gridRates = [][]float64{
	{50, 50},
	{20, 30, 40},
	{100, 50, 20, 10},
	{30, 30, 10, 10, 10},
}

// gridShapes are the users' relative arrival rates, one shape per machine
// set; the last repeats a rate, so two users share a class.
var gridShapes = [][]float64{
	{3, 2},
	{0.6, 0.4},
	{4, 3, 2, 1},
	{1, 1, 2},
}

// gridWeights returns health-weight vectors over n machines: all up, the
// first or the last cut off, a recovery ramp at RampSteps 3 (1/3, 2/3, 1,
// ...), and all cut off.
func gridWeights(n int) [][]float64 {
	var out [][]float64
	for v := 0; v < 5; v++ {
		w := make([]float64, n)
		for j := range w {
			switch v {
			case 0:
				w[j] = 1
			case 1:
				w[j] = math.Min(float64(j), 1)
			case 2:
				w[j] = math.Min(float64(n-1-j), 1)
			case 3:
				w[j] = float64(j%3+1) / 3
			}
		}
		out = append(out, w)
	}
	return out
}

// gridArrivals spreads u × the machines' total rate over the shape; jitter
// perturbs each user by a different relative amount, the way live per-user
// estimates differ from the nominal rates.
func gridArrivals(rates, shape []float64, u float64, jitter bool) []float64 {
	var total, parts float64
	for _, mu := range rates {
		total += mu
	}
	for _, s := range shape {
		parts += s
	}
	out := make([]float64, len(shape))
	for i, s := range shape {
		out[i] = u * total * s / parts
		if jitter {
			out[i] *= 1 + 0.0123*float64(i+1)*float64(1-2*(i%2))
		}
	}
	return out
}

// gatewayGrid is the health re-solve's grid (100 cases): every weight
// vector at five loads from light to past the total capacity, with no
// active mask, as reequilibrate calls SolveTable.
func gatewayGrid() []solveCase {
	var out []solveCase
	for r, rates := range gridRates {
		for _, w := range gridWeights(len(rates)) {
			for _, u := range []float64{0.3, 0.6, 0.9, 0.96, 1.3} {
				out = append(out, solveCase{
					rates: rates, weights: w, rho: []float64{0.9, 0.8}[r%2],
					arrivals: gridArrivals(rates, gridShapes[r], u, false),
				})
			}
		}
	}
	return out
}

// fleetGrid is the fleet leader's grid (360 cases): three active masks,
// nil weights (the seed table) and every weight vector, at five jittered
// loads.
func fleetGrid() []solveCase {
	var out []solveCase
	for r, rates := range gridRates {
		n := len(rates)
		for mask := 0; mask < 3; mask++ {
			active := make([]bool, n)
			for j := range active {
				active[j] = !(mask == 1 && j == 0 || mask == 2 && j == n-1)
			}
			for _, w := range append([][]float64{nil}, gridWeights(n)...) {
				for _, u := range []float64{0.2, 0.5, 0.8, 0.97, 1.5} {
					out = append(out, solveCase{
						rates: rates, weights: w, active: active, rho: []float64{0.9, 0.8}[r%2],
						arrivals: gridArrivals(rates, gridShapes[r], u, true),
					})
				}
			}
		}
	}
	return out
}

// gridGateway is an unstarted gateway over the case's machines.
func gridGateway(t *testing.T, c solveCase) *Gateway {
	t.Helper()
	backends := make([]string, len(c.rates))
	for j := range backends {
		backends[j] = fmt.Sprintf("http://127.0.0.1:%d", j+1)
	}
	g, err := NewGateway(GatewayConfig{
		Backends: backends, Rates: c.rates, Arrivals: c.arrivals,
		DegradedRho: c.rho, ProbeEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// solveOutcome is one case's result as the digest sees it: no capacity,
// a failed solve, or a solved table's admit fraction and profile.
type solveOutcome struct {
	noCapacity, failed bool
	admitFrac          float64
	profile            game.Profile
}

// digestOutcomes folds the outcomes into an FNV-64a hash, eight
// little-endian bytes per value.
func digestOutcomes(outs []solveOutcome) string {
	var buf []byte
	u := func(x uint64) { buf = binary.LittleEndian.AppendUint64(buf, x) }
	for _, o := range outs {
		switch {
		case o.noCapacity:
			u(1)
		case o.failed:
			u(2)
		default:
			u(0)
			u(math.Float64bits(o.admitFrac))
			for _, row := range o.profile {
				for _, f := range row {
					u(math.Float64bits(f))
				}
			}
		}
	}
	h := fnv.New64a()
	h.Write(buf)
	return fmt.Sprintf("%016x", h.Sum64())
}

func outcomeOf(tab Table, err error) solveOutcome {
	return solveOutcome{
		noCapacity: errors.Is(err, errNoCapacity),
		failed:     err != nil && !errors.Is(err, errNoCapacity),
		admitFrac:  tab.AdmitFrac,
		profile:    tab.Profile,
	}
}

// leftToRight is the plain sum the fleet leader took of its arrivals.
func leftToRight(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// TestSolveTableDigests pins SolveTable's profiles and admit fractions bit
// for bit to the two reduced-game solves it replaced. The wanted digests
// were recorded against the implementation that solved twice: from the
// gateway's reequilibrate (installed profile and degraded-mode admit
// fraction, over gatewayGrid) and from the fleet's solveFleet (over
// fleetGrid, given the DegradedRho as its rho). The gateway cases also go
// through reequilibrate here: the installed profile and degraded flag must
// follow the solved table, and the degraded bucket fills at AdmitFrac ×
// OfferedRate, within one ulp of the former capacity × DegradedRho.
//
// The fleet summed its offered load left to right; SolveTable takes the
// compensated sum the gateway took (numeric.Sum, as game.NewSystem's
// overload check does). Where the two sums differ, a shedding table's admit
// fraction moves by an ulp or two, so those cases are held to the former
// formula within two ulps and the fleet digest covers the rest.
func TestSolveTableDigests(t *testing.T) {
	const wantGateway, wantFleet = "1c1dbbb762f9cc69", "e836d01f428660e7"

	var outs []solveOutcome
	shedding, ulpMoved := 0, 0
	for k, c := range gatewayGrid() {
		tab, err := gridGateway(t, c).SolveTable(c.arrivals, c.weights, nil)
		o := outcomeOf(tab, err)
		outs = append(outs, o)

		g := gridGateway(t, c)
		g.reequilibrate(c.weights)
		sh := g.shed.Load()
		switch {
		case o.noCapacity:
			if sh == nil || sh.AdmitFrac != 0 || sh.Allow() {
				t.Fatalf("case %d: no capacity left shed state %+v, want everything shed", k, sh)
			}
			continue
		case o.failed:
			t.Fatalf("case %d: solve failed: %v", k, err)
		}
		if !g.Profile().Equal(tab.Profile) {
			t.Fatalf("case %d: reequilibrate installed a profile other than SolveTable's", k)
		}
		if (sh != nil) != (tab.AdmitFrac < 1) {
			t.Fatalf("case %d: degraded %v with admit fraction %v", k, sh != nil, tab.AdmitFrac)
		}
		if sh == nil {
			continue
		}
		shedding++
		var capacity float64
		for j, mu := range c.rates {
			capacity += mu * c.weights[j]
		}
		former := capacity * c.rho
		if sh.AdmitRate != tab.AdmitFrac*tab.OfferedRate || sh.AdmitFrac != tab.AdmitFrac {
			t.Fatalf("case %d: shed %+v, want %v × %v", k, sh, tab.AdmitFrac, tab.OfferedRate)
		}
		if sh.AdmitRate != former {
			ulpMoved++
			if sh.AdmitRate != math.Nextafter(former, sh.AdmitRate) {
				t.Fatalf("case %d: fill rate %v more than one ulp from capacity × DegradedRho %v", k, sh.AdmitRate, former)
			}
		}
	}
	t.Logf("gateway: %d cases, %d shedding, fill rate moved one ulp in %d", len(outs), shedding, ulpMoved)
	if got := digestOutcomes(outs); got != wantGateway {
		t.Errorf("gateway grid digest %s, want %s", got, wantGateway)
	}

	outs = outs[:0]
	summedApart, moved := 0, 0
	for k, c := range fleetGrid() {
		tab, err := gridGateway(t, c).SolveTable(c.arrivals, c.weights, c.active)
		plain := leftToRight(c.arrivals)
		if plain == numeric.Sum(c.arrivals) {
			outs = append(outs, outcomeOf(tab, err))
			continue
		}
		summedApart++
		var capacity float64
		for j, mu := range c.rates {
			if c.active[j] {
				w := 1.0
				if c.weights != nil {
					w = c.weights[j]
				}
				capacity += mu * w
			}
		}
		want := 1.0
		if plain >= capacity*saturationRho {
			want = c.rho * capacity / plain
		}
		switch {
		case capacity == 0:
			if !errors.Is(err, errNoCapacity) {
				t.Fatalf("case %d: no capacity, got %v", k, err)
			}
		case err != nil:
			t.Fatalf("case %d: solve failed: %v", k, err)
		case tab.AdmitFrac != want:
			moved++
			if d := int64(math.Float64bits(tab.AdmitFrac)) - int64(math.Float64bits(want)); d < -2 || d > 2 {
				t.Fatalf("case %d: admit fraction %v, formerly %v", k, tab.AdmitFrac, want)
			}
		}
	}
	t.Logf("fleet: %d cases, %d summed apart, admit fraction moved in %d", len(outs)+summedApart, summedApart, moved)
	if got := digestOutcomes(outs); got != wantFleet {
		t.Errorf("fleet grid digest %s over %d cases, want %s", got, len(outs), wantFleet)
	}
}

// TestDegradedRhoBelowSaturation: a DegradedRho at or above saturationRho
// would make a shedding table admit more than the offered load, so the
// gateway takes the 0.9 default instead, as it does for values of 1 and
// more. On 2 × 50/s machines with 96/s offered, 0.99 would have admitted
// 1.03125 of the offered load.
func TestDegradedRhoBelowSaturation(t *testing.T) {
	for _, rho := range []float64{0.95, 0.99, 1, 0} {
		g := gridGateway(t, solveCase{rates: []float64{50, 50}, arrivals: []float64{48, 48}, rho: rho})
		tab, err := g.SolveTable([]float64{48, 48}, nil, nil)
		if err != nil {
			t.Fatalf("DegradedRho %v: %v", rho, err)
		}
		if want := 0.9 * 100 / 96; tab.AdmitFrac != want {
			t.Errorf("DegradedRho %v: admit fraction %v, want the default's %v", rho, tab.AdmitFrac, want)
		}
	}
	g := gridGateway(t, solveCase{rates: []float64{50, 50}, arrivals: []float64{48, 48}, rho: 0.94})
	if tab, err := g.SolveTable([]float64{48, 48}, nil, nil); err != nil || tab.AdmitFrac != 0.94*100/96 {
		t.Errorf("DegradedRho 0.94: admit fraction %v (%v), want %v", tab.AdmitFrac, err, 0.94*100/96)
	}
}
