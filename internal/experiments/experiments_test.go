package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestConfigs(t *testing.T) {
	rates := Table1Rates()
	if len(rates) != 16 {
		t.Fatalf("Table-1 has %d computers, want 16", len(rates))
	}
	var total float64
	for _, mu := range rates {
		total += mu
	}
	if total != Table1AggregateRate {
		t.Fatalf("aggregate rate %v, want %v", total, Table1AggregateRate)
	}
	mix := UserMix()
	var sum float64
	for _, q := range mix {
		sum += q
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("user mix sums to %v", sum)
	}
	sys, err := Table1System(0.6)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Utilization(); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("utilization %v", got)
	}
	if _, err := Table1System(0); err == nil {
		t.Error("rho=0 accepted")
	}
	if _, err := Table1System(1); err == nil {
		t.Error("rho=1 accepted")
	}
}

func TestUniformUsersSystem(t *testing.T) {
	sys, err := UniformUsersSystem(8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Users() != 8 {
		t.Fatalf("users = %d", sys.Users())
	}
	for i := 1; i < 8; i++ {
		if sys.Arrivals[i] != sys.Arrivals[0] {
			t.Fatal("users not uniform")
		}
	}
	if _, err := UniformUsersSystem(0, 0.5); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := UniformUsersSystem(4, 1.5); err == nil {
		t.Error("rho>1 accepted")
	}
}

func TestSkewSystem(t *testing.T) {
	for _, sk := range []float64{1, 10, 20} {
		sys, err := SkewSystem(sk, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.SpeedSkewness(); math.Abs(got-sk) > 1e-12 {
			t.Fatalf("skew %v, want %v", got, sk)
		}
		if got := sys.Utilization(); math.Abs(got-0.6) > 1e-12 {
			t.Fatalf("utilization %v", got)
		}
		if sys.Computers() != 16 {
			t.Fatalf("computers = %d", sys.Computers())
		}
	}
	if _, err := SkewSystem(0.5, 0.6); err == nil {
		t.Error("skew<1 accepted")
	}
}

func TestFig2(t *testing.T) {
	res, err := Fig2(0.6, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NormsZero) == 0 || len(res.NormsProp) == 0 {
		t.Fatal("empty norm series")
	}
	// Both series end below epsilon (converged).
	if res.NormsZero[len(res.NormsZero)-1] > res.Epsilon {
		t.Error("NASH_0 did not converge")
	}
	if res.NormsProp[len(res.NormsProp)-1] > res.Epsilon {
		t.Error("NASH_P did not converge")
	}
	// NASH_P starts closer to the equilibrium: lower norm from round 2 on.
	if res.NormsProp[1] >= res.NormsZero[1] {
		t.Errorf("NASH_P round-2 norm %v not below NASH_0 %v", res.NormsProp[1], res.NormsZero[1])
	}
	tb := res.Table()
	if tb.Rows() != len(res.NormsZero) && tb.Rows() != len(res.NormsProp) {
		t.Errorf("table rows %d", tb.Rows())
	}
	if !strings.Contains(tb.String(), "Figure 2") {
		t.Error("table title missing")
	}
}

func TestFig3(t *testing.T) {
	res, err := Fig3(0.6, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 { // 4, 8, ..., 32
		t.Fatalf("rows = %d, want 8", len(res.Rows))
	}
	prev := 0
	for _, row := range res.Rows {
		// The paper's shape: more users, more iterations; NASH_P <= NASH_0.
		if row.RoundsZero < prev {
			t.Errorf("m=%d: iterations decreased (%d after %d)", row.Users, row.RoundsZero, prev)
		}
		prev = row.RoundsZero
		if row.RoundsProp > row.RoundsZero {
			t.Errorf("m=%d: NASH_P (%d) slower than NASH_0 (%d)", row.Users, row.RoundsProp, row.RoundsZero)
		}
	}
	if res.Rows[len(res.Rows)-1].RoundsZero <= res.Rows[0].RoundsZero {
		t.Error("iteration count did not grow from 4 to 32 users")
	}
	if res.Table().Rows() != 8 {
		t.Error("table rows mismatch")
	}
}

func TestTable1Render(t *testing.T) {
	tb := Table1()
	if tb.Rows() != 4 {
		t.Fatalf("rows = %d, want 4 computer types", tb.Rows())
	}
	out := tb.String()
	for _, want := range []string{"10", "20", "50", "100", "6", "5", "3", "2"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestFig4AnalyticShape(t *testing.T) {
	res, err := Fig4(QuickSim(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 9*4 {
		t.Fatalf("points = %d, want 36", len(res.Points))
	}
	byRho := map[float64]map[string]Fig4Point{}
	for _, pt := range res.Points {
		key := math.Round(pt.Utilization * 10)
		if byRho[key] == nil {
			byRho[key] = map[string]Fig4Point{}
		}
		byRho[key][pt.Scheme] = pt
	}
	for key, ms := range byRho {
		gos, nash, ios, ps := ms["GOS"], ms["NASH"], ms["IOS"], ms["PS"]
		// Ordering: GOS <= NASH <= IOS <= PS at every load.
		if gos.AnalyticTime > nash.AnalyticTime*(1+1e-9) ||
			nash.AnalyticTime > ios.AnalyticTime*(1+1e-9) ||
			ios.AnalyticTime > ps.AnalyticTime*(1+1e-9) {
			t.Errorf("rho=%v: ordering violated: GOS %v NASH %v IOS %v PS %v",
				key/10, gos.AnalyticTime, nash.AnalyticTime, ios.AnalyticTime, ps.AnalyticTime)
		}
		// Fairness: PS and IOS exactly 1; NASH close to 1.
		if math.Abs(ps.AnalyticFairness-1) > 1e-9 || math.Abs(ios.AnalyticFairness-1) > 1e-9 {
			t.Errorf("rho=%v: PS/IOS fairness not 1", key/10)
		}
		if nash.AnalyticFairness < 0.95 {
			t.Errorf("rho=%v: NASH fairness %v below 0.95", key/10, nash.AnalyticFairness)
		}
	}
	// Paper: at rho=0.5 NASH within ~10% of GOS and ~30% below PS.
	mid := byRho[5]
	if mid["NASH"].AnalyticTime > mid["GOS"].AnalyticTime*1.15 {
		t.Errorf("NASH %v not close to GOS %v at 50%%", mid["NASH"].AnalyticTime, mid["GOS"].AnalyticTime)
	}
	if mid["NASH"].AnalyticTime > 0.8*mid["PS"].AnalyticTime {
		t.Errorf("NASH %v not well below PS %v at 50%%", mid["NASH"].AnalyticTime, mid["PS"].AnalyticTime)
	}
	// GOS fairness degrades with load (sequential fill).
	if byRho[9]["GOS"].AnalyticFairness >= byRho[1]["GOS"].AnalyticFairness {
		t.Error("GOS fairness did not degrade with load")
	}
	if res.Table().Rows() != 36 {
		t.Error("table rows mismatch")
	}
}

func TestFig4Simulated(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	p := QuickSim()
	res, err := Fig4(p, true)
	if err != nil {
		t.Fatal(err)
	}
	// Simulated means must track analytic predictions within the (wide)
	// quick-mode confidence intervals or 15%.
	for _, pt := range res.Points {
		if !pt.Simulated {
			t.Fatal("point not simulated")
		}
		diff := math.Abs(pt.SimTime.Mean - pt.AnalyticTime)
		if diff > pt.SimTime.HalfWide+0.15*pt.AnalyticTime {
			t.Errorf("rho=%.1f %s: sim %v vs analytic %v (half %v)",
				pt.Utilization, pt.Scheme, pt.SimTime.Mean, pt.AnalyticTime, pt.SimTime.HalfWide)
		}
	}
}

func TestFig5(t *testing.T) {
	res, err := Fig5(0.6, QuickSim(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != 4 {
		t.Fatalf("schemes = %d", len(res.Metrics))
	}
	var nash, gos SchemeMetrics
	for _, m := range res.Metrics {
		switch m.Scheme {
		case "NASH":
			nash = m
		case "GOS":
			gos = m
		}
	}
	// Paper: GOS has large spread across users; NASH gives each user its
	// minimum possible time, spread far smaller.
	spread := func(xs []float64) float64 {
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return hi - lo
	}
	if spread(gos.AnalyticUsers) <= spread(nash.AnalyticUsers) {
		t.Errorf("GOS spread %v should exceed NASH spread %v",
			spread(gos.AnalyticUsers), spread(nash.AnalyticUsers))
	}
	if res.Table().Rows() != 10 {
		t.Errorf("table rows = %d, want 10 users", res.Table().Rows())
	}
}

func TestFig6AnalyticShape(t *testing.T) {
	res, err := Fig6(0.6, nil, QuickSim(), false)
	if err != nil {
		t.Fatal(err)
	}
	bySkew := map[float64]map[string]Fig6Point{}
	for _, pt := range res.Points {
		if bySkew[pt.Skewness] == nil {
			bySkew[pt.Skewness] = map[string]Fig6Point{}
		}
		bySkew[pt.Skewness][pt.Scheme] = pt
	}
	// At skew 1 (homogeneous) every scheme coincides.
	base := bySkew[1]
	for _, s := range []string{"GOS", "IOS", "PS"} {
		if math.Abs(base[s].AnalyticTime-base["NASH"].AnalyticTime) > 1e-9*base["NASH"].AnalyticTime {
			t.Errorf("homogeneous system: %s time %v != NASH %v", s, base[s].AnalyticTime, base["NASH"].AnalyticTime)
		}
	}
	// At high skew NASH tracks GOS closely while PS is far worse.
	hi := bySkew[20]
	if hi["NASH"].AnalyticTime > hi["GOS"].AnalyticTime*1.1 {
		t.Errorf("high skew: NASH %v not within 10%% of GOS %v", hi["NASH"].AnalyticTime, hi["GOS"].AnalyticTime)
	}
	if hi["PS"].AnalyticTime < 1.5*hi["GOS"].AnalyticTime {
		t.Errorf("high skew: PS %v should be far worse than GOS %v", hi["PS"].AnalyticTime, hi["GOS"].AnalyticTime)
	}
	// IOS approaches NASH/GOS as skew grows: its excess over GOS shrinks.
	losLow := bySkew[2]["IOS"].AnalyticTime / bySkew[2]["GOS"].AnalyticTime
	losHigh := hi["IOS"].AnalyticTime / hi["GOS"].AnalyticTime
	if losHigh > losLow {
		t.Errorf("IOS/GOS ratio grew with skew: %v -> %v", losLow, losHigh)
	}
}

func TestFigurePlots(t *testing.T) {
	fig2, err := Fig2(0.6, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	fig3, err := Fig3(0.6, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	fig4, err := Fig4(QuickSim(), false)
	if err != nil {
		t.Fatal(err)
	}
	fig6, err := Fig6(0.6, []float64{1, 4, 10}, QuickSim(), false)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]interface{ Plot() (string, error) }{
		"fig2": fig2, "fig3": fig3, "fig4": fig4, "fig6": fig6,
	} {
		out, err := p.Plot()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out, "legend:") {
			t.Errorf("%s: plot missing legend:\n%s", name, out)
		}
		if len(strings.Split(out, "\n")) < 10 {
			t.Errorf("%s: plot suspiciously short", name)
		}
	}
	// Figure plots name all four schemes.
	out, _ := fig4.Plot()
	for _, s := range []string{"NASH", "GOS", "IOS", "PS"} {
		if !strings.Contains(out, s) {
			t.Errorf("fig4 plot missing %s", s)
		}
	}
}

func TestAbl1(t *testing.T) {
	res, err := Abl1(0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.RoundsProp > row.RoundsZero {
			t.Errorf("eps=%v: NASH_P slower", row.Epsilon)
		}
	}
	if res.Table().Rows() != 5 {
		t.Error("table mismatch")
	}
}

func TestAbl2(t *testing.T) {
	res, err := Abl2(0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.MaxLoadErr > 0.5 { // jobs/s, out of 306 total
			t.Errorf("%s: load error %v too large", row.Solver, row.MaxLoadErr)
		}
	}
	// Frank–Wolfe must be visibly the slow one.
	if res.Rows[2].Iterations < 100 {
		t.Errorf("frank-wolfe used only %d iterations; expected the slow baseline", res.Rows[2].Iterations)
	}
}

func TestAbl3(t *testing.T) {
	res, err := Abl3()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if math.Abs(row.FairnessUniform-1) > 1e-9 {
			t.Errorf("uniform fairness %v != 1", row.FairnessUniform)
		}
		if row.FairnessSequential > row.FairnessUniform+1e-9 {
			t.Error("sequential fill fairer than uniform?")
		}
	}
}

func TestAbl4(t *testing.T) {
	res, err := Abl4(0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows[1:] {
		if row.Rounds != res.Rows[0].Rounds {
			t.Errorf("%s rounds %d != sequential %d", row.Mode, row.Rounds, res.Rows[0].Rounds)
		}
		if math.Abs(row.OverallTime-res.Rows[0].OverallTime) > 1e-9 {
			t.Errorf("%s overall %v != sequential %v", row.Mode, row.OverallTime, res.Rows[0].OverallTime)
		}
	}
}

func TestAbl6(t *testing.T) {
	res, err := Abl6(0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byOrder := map[string]Abl6Row{}
	for _, row := range res.Rows {
		key := row.Order
		if row.Damping != 1 {
			key += "-damped"
		}
		byOrder[key] = row
	}
	if !byOrder["round-robin"].Converged || !byOrder["random"].Converged {
		t.Fatal("sequential orders must converge")
	}
	if byOrder["jacobi"].Converged {
		t.Error("undamped Jacobi converged; expected oscillation on the Table-1 system")
	}
	dj := byOrder["jacobi-damped"]
	if !dj.Converged {
		t.Fatal("damped Jacobi must converge")
	}
	// The Figure-2 gap hypothesis: under Jacobi the NASH_P saving is a
	// larger fraction than under the ring.
	rr := byOrder["round-robin"]
	ringSaving := 1 - float64(rr.RoundsProp)/float64(rr.RoundsZero)
	jacSaving := 1 - float64(dj.RoundsProp)/float64(dj.RoundsZero)
	if jacSaving <= ringSaving {
		t.Errorf("jacobi saving %.3f not above ring saving %.3f", jacSaving, ringSaving)
	}
	if res.Table().Rows() != 4 {
		t.Error("table mismatch")
	}
}

func TestExt1PriceOfAnarchy(t *testing.T) {
	res, err := Ext1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// PoA >= 1 by definition of the optimum.
		for name, poa := range map[string]float64{"NASH": row.PoANash, "IOS": row.PoAWardrop, "PS": row.PoAPS} {
			if poa < 1-1e-9 {
				t.Errorf("rho=%v %s: PoA %v below 1", row.Utilization, name, poa)
			}
		}
		// Selfish users lose little: NASH PoA below the Wardrop PoA and
		// far below the paper's cited 4/3-style bounds.
		if row.PoANash > row.PoAWardrop+1e-9 {
			t.Errorf("rho=%v: NASH PoA %v above Wardrop %v", row.Utilization, row.PoANash, row.PoAWardrop)
		}
		if row.PoANash > 1.25 {
			t.Errorf("rho=%v: NASH PoA %v implausibly large", row.Utilization, row.PoANash)
		}
	}
	if res.Table().Rows() != 9 {
		t.Error("table rows mismatch")
	}
}

func TestExt2Burstiness(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	res, err := Ext2(0.6, QuickSim())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Inflation must be monotone in burstiness: deterministic < poisson <
	// scv=4 < scv=16.
	for k := 1; k < len(res.Rows); k++ {
		if res.Rows[k].Inflation <= res.Rows[k-1].Inflation {
			t.Errorf("inflation not monotone at %s (scv %v): %v after %v",
				res.Rows[k].Model, res.Rows[k].SCV, res.Rows[k].Inflation, res.Rows[k-1].Inflation)
		}
	}
	// Poisson inflation ~ 1 (the model is exact there).
	poisson := res.Rows[1]
	if poisson.Inflation < 0.9 || poisson.Inflation > 1.1 {
		t.Errorf("poisson inflation %v far from 1", poisson.Inflation)
	}
	// The QNA two-moment prediction tracks the simulation within ~20% up
	// to SCV 4 (and is exact for Poisson). At extreme burstiness (SCV 16)
	// the stationary-interval superposition approximation is known to
	// overestimate, so it is excluded from the tight check and only
	// required to be on the conservative (high) side.
	for _, row := range res.Rows {
		if row.SCV <= 4 {
			if math.Abs(row.QNAPrediction-row.Overall.Mean) > row.Overall.HalfWide+0.2*row.Overall.Mean {
				t.Errorf("%s scv=%v: QNA %v vs simulated %v", row.Model, row.SCV, row.QNAPrediction, row.Overall.Mean)
			}
		} else if row.QNAPrediction < row.Overall.Mean-row.Overall.HalfWide {
			t.Errorf("scv=%v: QNA %v underestimates simulated %v", row.SCV, row.QNAPrediction, row.Overall.Mean)
		}
	}
}

func TestExt3ServiceVariability(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	res, err := Ext3(0.6, QuickSim())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// The M/G/1 (Pollaczek–Khinchine) prediction must match the
		// simulation within the quick-mode tolerance.
		diff := math.Abs(row.Overall.Mean - row.PKPrediction)
		if diff > row.Overall.HalfWide+0.1*row.PKPrediction {
			t.Errorf("%s scv=%v: simulated %v vs P-K %v", row.Model, row.SCV, row.Overall.Mean, row.PKPrediction)
		}
	}
	// Monotone in service variability.
	for k := 1; k < len(res.Rows); k++ {
		if res.Rows[k].Inflation <= res.Rows[k-1].Inflation {
			t.Errorf("inflation not monotone: %v after %v", res.Rows[k].Inflation, res.Rows[k-1].Inflation)
		}
	}
	if res.Table().Rows() != 3 {
		t.Error("table mismatch")
	}
}

func TestExt4Scalability(t *testing.T) {
	res, err := Ext4(0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Rounds <= 0 || row.Elapsed <= 0 {
			t.Errorf("n=%d m=%d: degenerate measurements %+v", row.Computers, row.Users, row)
		}
	}
	// Rounds grow with m at fixed n=64 (the Figure 3 shape at scale).
	var mRows []Ext4Row
	for _, row := range res.Rows {
		if row.Computers == 64 {
			mRows = append(mRows, row)
		}
	}
	for k := 1; k < len(mRows); k++ {
		if mRows[k].Users > mRows[k-1].Users && mRows[k].Rounds < mRows[k-1].Rounds {
			t.Errorf("rounds decreased with more users: %+v after %+v", mRows[k], mRows[k-1])
		}
	}
	if res.Table().Rows() != 7 {
		t.Error("table mismatch")
	}
}

func TestExt5OnlineBalancing(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	res, err := Ext5(0.6, 2400, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 8 {
		t.Fatalf("windows = %d", len(res.Windows))
	}
	if res.Rebalances < 100 {
		t.Fatalf("only %d rebalances", res.Rebalances)
	}
	first, lastW := res.Windows[0], res.Windows[len(res.Windows)-1]
	if lastW.MeasuredD >= first.MeasuredD {
		t.Errorf("no improvement: first %v, last %v", first.MeasuredD, lastW.MeasuredD)
	}
	// Final window must be closer to NASH than to PS, and the final
	// installed profile near the equilibrium's overall time.
	if lastW.MeasuredD > (res.NashTime+res.PSTime)/2 {
		t.Errorf("last window %v not on the NASH side (PS %v, NASH %v)", lastW.MeasuredD, res.PSTime, res.NashTime)
	}
	if res.TailInstalledD > res.NashTime*1.15 {
		t.Errorf("tail installed profiles %v more than 15%% above NASH %v", res.TailInstalledD, res.NashTime)
	}
	if res.Table().Rows() != 8 {
		t.Error("table mismatch")
	}
}

func TestExt6StaticVsDynamicDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	res, err := Ext6(0.6, QuickSim())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]Ext6Row{}
	for _, row := range res.Rows {
		byName[row.Policy] = row
	}
	nash := byName["NASH (static)"]
	sed := byName["SED (dynamic)"]
	if sed.Overall.Mean >= nash.Overall.Mean {
		t.Errorf("SED %v should beat static NASH %v (it sees per-job state)", sed.Overall.Mean, nash.Overall.Mean)
	}
	if res.Table().Rows() != 3 {
		t.Error("table mismatch")
	}
}

func TestAbl5(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	res, err := Abl5(0.6, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Suboptimality < -1e-9 {
			t.Errorf("window %v: negative suboptimality %v", row.ObserveSeconds, row.Suboptimality)
		}
	}
	// The longest window must estimate well: within 2% of optimal.
	last := res.Rows[len(res.Rows)-1]
	if last.Suboptimality > 0.02 {
		t.Errorf("long window suboptimality %v above 2%%", last.Suboptimality)
	}
}

func TestExt7FaultTolerance(t *testing.T) {
	res, err := Ext7(0.6, 2002, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]Ext7Row{}
	for _, row := range res.Rows {
		byName[row.Scenario] = row
	}
	clean := byName["no faults"]
	if !clean.Converged || clean.Recoveries != 0 || len(clean.Ejected) != 0 {
		t.Errorf("clean run not clean: %+v", clean)
	}
	if clean.DevVsSeq > 1e-9 {
		t.Errorf("clean run deviates from sequential by %v", clean.DevVsSeq)
	}
	chaos := byName["full chaos"]
	if !chaos.Converged || len(chaos.Ejected) != 0 {
		t.Errorf("full chaos should converge without ejection: %+v", chaos)
	}
	if chaos.DevVsSeq > 1e-6 {
		t.Errorf("full-chaos equilibrium off sequential by %v", chaos.DevVsSeq)
	}
	eject := byName["crash node 7 (eject)"]
	if !eject.Converged || len(eject.Ejected) != 1 || eject.Ejected[0] != 7 {
		t.Errorf("crash scenario should eject node 7: %+v", eject)
	}
	restart := byName["crash node 4 (restart)"]
	if !restart.Converged || restart.Restarts < 1 || len(restart.Ejected) != 0 {
		t.Errorf("restart scenario should revive node 4: %+v", restart)
	}
	for _, row := range res.Rows {
		if row.EqGap > 1e-6 {
			t.Errorf("%s: survivors %v away from their Nash equilibrium", row.Scenario, row.EqGap)
		}
	}
	if res.Table().Rows() != 4 {
		t.Error("table mismatch")
	}
}

func TestExt8LiveServing(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live serving run")
	}
	res, err := Ext8(7, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	closed, sim, live := res.Rows[0], res.Rows[1], res.Rows[2]
	if closed.RelErr != 0 || closed.MaxSplitDev != 0 {
		t.Errorf("closed form deviates from itself: %+v", closed)
	}
	if res.Predicted <= 0 || closed.Overall != res.Predicted {
		t.Errorf("predicted %v vs closed-form row %v", res.Predicted, closed.Overall)
	}
	// The DES row shares the closed form's assumptions exactly; even the
	// quick window should land close.
	if sim.Jobs == 0 || sim.RelErr > 0.10 {
		t.Errorf("simulator off closed form: %+v", sim)
	}
	// The live row rides a real scheduler over a short quick-mode window
	// (~160 jobs); only order-of-magnitude sanity is asserted here — the
	// tight 10% bound is the -short-skipped end-to-end test in
	// internal/serve, whose window is 4x longer.
	if live.Jobs == 0 || live.RelErr > 1.0 {
		t.Errorf("live gateway far off closed form: %+v", live)
	}
	if live.MaxSplitDev > 0.05 {
		t.Errorf("live routing split %v off equilibrium by %v", live.Split, live.MaxSplitDev)
	}
	if res.Table().Rows() != 3 {
		t.Error("table mismatch")
	}
	data, err := res.BenchJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"experiment": "ext8_live_serving"`, `"live gateway"`, `"simulator"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("bench json missing %s", want)
		}
	}
}

func TestExt9SelfHealing(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live chaos serving run")
	}
	res, err := Ext9(7, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]Ext9Row{}
	for _, row := range res.Rows {
		byName[row.Scenario] = row
		if row.Sent == 0 {
			t.Fatalf("%s: no load sent", row.Scenario)
		}
	}
	clean := byName["clean"]
	if clean.BreakerOpens != 0 || clean.Availability < 0.99 {
		t.Errorf("clean run not clean: %+v", clean)
	}
	// At rho 0.7 the equilibrium loads every machine; a fault grid over a
	// backend nobody routes to would be vacuous.
	if clean.FaultyShare < 0.05 {
		t.Errorf("faulty backend carries %v of the clean traffic — grid is vacuous", clean.FaultyShare)
	}
	// 5% errors sit below every breaker threshold; the retry path absorbs
	// nearly all of them.
	if small := byName["errors 5%"]; small.Availability < 0.97 {
		t.Errorf("5%% injected errors leaked through: %+v", small)
	}
	// 50% errors trip the breaker and the survivors carry the load.
	heavy := byName["errors 50%"]
	if heavy.BreakerOpens == 0 || heavy.Reequilibrations == 0 {
		t.Errorf("50%% injected errors never tripped the breaker: %+v", heavy)
	}
	crash := byName["crash+recover"]
	if crash.BreakerOpens == 0 || crash.Reequilibrations < 2 {
		t.Errorf("crash scenario missed trip or re-equilibration: %+v", crash)
	}
	if crash.Availability < 0.9 {
		t.Errorf("crash availability %v", crash.Availability)
	}
	if res.Table().Rows() != 4 {
		t.Error("table mismatch")
	}

	data, err := ServeBenchJSON(nil, res, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"schema": 5`, `"ext9_self_healing"`, `"crash+recover"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("bench json missing %s", want)
		}
	}
	if strings.Contains(string(data), "ext8_live_serving") {
		t.Error("nil ext8 result serialized anyway")
	}
}

func TestExt10Fleet(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live fleet serving run")
	}
	res, err := Ext10(7, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]Ext10Row{}
	for _, row := range res.Rows {
		byName[row.Scenario] = row
		if row.Sent == 0 {
			t.Fatalf("%s: no load sent", row.Scenario)
		}
		if row.PostSamples <= 0 {
			t.Fatalf("%s: empty post-fault measurement window", row.Scenario)
		}
	}
	clean := byName["clean"]
	if clean.Availability < 0.99 || clean.Failovers != 0 {
		t.Errorf("clean run not clean: %+v", clean)
	}
	// One leadership assumption (node 0 at startup) and its reign's table.
	if clean.Elections != 1 || clean.FinalEpoch < 1 {
		t.Errorf("clean control plane churned: %+v", clean)
	}
	// The quick windows hold only a few hundred post-fault samples, so the
	// split bound here is statistical headroom, not the 2-point acceptance
	// bound (that one is pinned by the fleet e2e test over a 20s window).
	if clean.SplitDevPost > 0.06 {
		t.Errorf("clean split drifted from Nash: %+v", clean)
	}
	kill := byName["leader kill"]
	if kill.Availability < 0.99 {
		t.Errorf("leader kill availability: %+v", kill)
	}
	if kill.Failovers == 0 || kill.Elections < 2 || kill.FinalEpoch < 2 {
		t.Errorf("leader kill never exercised failover/re-election: %+v", kill)
	}
	if kill.RecoverSeconds < 0 || kill.RecoverSeconds > 2 {
		t.Errorf("leader kill recovery took %vs", kill.RecoverSeconds)
	}
	churn := byName["backend churn"]
	if churn.Availability < 0.99 || churn.FinalEpoch < 1 {
		t.Errorf("backend churn: %+v", churn)
	}
	both := byName["kill+churn"]
	if both.Availability < 0.98 || both.Elections < 2 || both.FinalEpoch < 2 {
		t.Errorf("compound scenario: %+v", both)
	}
	for _, name := range []string{"leader kill", "backend churn", "kill+churn"} {
		if dev := byName[name].SplitDevPost; dev > 0.1 {
			t.Errorf("%s: post-fault split %.4f off Nash", name, dev)
		}
	}
	if res.Table().Rows() != 4 {
		t.Error("table mismatch")
	}

	data, err := ServeBenchJSON(nil, nil, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"schema": 5`, `"ext10_fleet"`, `"leader kill"`, `"split_dev_post"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("bench json missing %s", want)
		}
	}
}

func TestExt12PartitionTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live fleet serving run")
	}
	res, err := Ext12(7, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]Ext12Row{}
	for _, row := range res.Rows {
		byName[row.Scenario] = row
		if row.Sent == 0 {
			t.Fatalf("%s: no load sent", row.Scenario)
		}
		if row.AuditEvents == 0 {
			t.Fatalf("%s: empty audit trace", row.Scenario)
		}
		// The safety invariants must hold under every fault pattern.
		if row.AuditViolations != 0 {
			t.Errorf("%s: %d audit violations", row.Scenario, row.AuditViolations)
		}
	}
	clean := byName["clean"]
	if clean.Availability < 0.99 || clean.Elections != 1 || clean.QuorumLossObserved {
		t.Errorf("clean run not clean: %+v", clean)
	}
	// A minority partition touches only control links: the data plane must
	// not notice (this is the 2-point acceptance bound) and the isolated
	// follower must observe its quorum loss.
	minority := byName["minority partition"]
	if minority.Availability < 0.99 {
		t.Errorf("minority partition availability %.4f < 0.99", minority.Availability)
	}
	if !minority.QuorumLossObserved {
		t.Errorf("isolated follower never degraded: %+v", minority)
	}
	leader := byName["leader partition"]
	if leader.Availability < 0.99 || !leader.QuorumLossObserved {
		t.Errorf("leader partition: %+v", leader)
	}
	if leader.FailoverSeconds < 0 || leader.FailoverSeconds > 3 {
		t.Errorf("leader partition failover took %vs", leader.FailoverSeconds)
	}
	if leader.Elections < 2 || leader.FinalEpoch < 2 {
		t.Errorf("leader partition never re-elected: %+v", leader)
	}
	compound := byName["partition+crash"]
	if compound.Availability < 0.97 || !compound.QuorumLossObserved {
		t.Errorf("compound scenario: %+v", compound)
	}
	if compound.FailoverSeconds < 0 || compound.FailoverSeconds > 4 {
		t.Errorf("compound failover took %vs", compound.FailoverSeconds)
	}
	if res.Table().Rows() != 4 {
		t.Error("table mismatch")
	}

	data, err := ServeBenchJSON(nil, nil, nil, res)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"schema": 5`, `"ext12_partition"`, `"minority partition"`, `"audit_violations"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("bench json missing %s", want)
		}
	}
}

func TestExt11MegascalePoint(t *testing.T) {
	// A tiny sweep point with the dense cross-check keeps the smoke fast
	// while exercising the whole measurement path (solve, certificate,
	// dense ground-truth comparison).
	row, err := ext11Point(8, 3, 30, 0.7, true)
	if err != nil {
		t.Fatal(err)
	}
	if row.Machines != 8 || row.Classes != 3 || row.Users != 30 {
		t.Fatalf("row shape %+v", row)
	}
	if row.Rounds <= 0 || row.Solves <= 0 || row.SolveSeconds <= 0 {
		t.Errorf("degenerate measurements %+v", row)
	}
	if row.StateMB <= 0 || row.OverallTime <= 0 {
		t.Errorf("degenerate state/time %+v", row)
	}
	// The class equilibrium must agree with the dense per-user ground truth
	// and certify as an approximate equilibrium.
	if row.DenseLoadDev == nil || *row.DenseLoadDev > 1e-3 {
		t.Errorf("dense load deviation %v", row.DenseLoadDev)
	}
	if row.MaxDeviation > 1e-3 {
		t.Errorf("equilibrium certificate %v", row.MaxDeviation)
	}

	res := &Ext11Result{Experiment: "ext11_megascale", Utilization: 0.7, Epsilon: ext11PerUserEps, Rows: []Ext11Row{*row}}
	if res.Table().Rows() != 1 {
		t.Error("table mismatch")
	}
	data, err := res.BenchJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"ext11_megascale"`, `"solve_seconds"`, `"dense_load_dev"`, `"max_deviation"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("bench json missing %s", want)
		}
	}
}

func TestExt11SystemShape(t *testing.T) {
	cs, err := ext11System(10, 4, 103, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.Users(); got != 103 {
		t.Fatalf("users = %d, want 103", got)
	}
	if got := cs.ClassCount(); got != 4 {
		t.Fatalf("classes = %d, want 4", got)
	}
	if rho := cs.Utilization(); math.Abs(rho-0.7) > 1e-12 {
		t.Fatalf("utilization = %v, want 0.7", rho)
	}
	// More users than classes is required; the degenerate case errors.
	if _, err := ext11System(4, 10, 3, 0.7); err == nil {
		t.Fatal("want error when users < classes")
	}
}
