package game

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func twoBy3() *System {
	s, err := NewSystem([]float64{10, 20, 30}, []float64{5, 10})
	if err != nil {
		panic(err)
	}
	return s
}

func TestNewSystemValidation(t *testing.T) {
	cases := []struct {
		name     string
		rates    []float64
		arrivals []float64
		wantErr  bool
	}{
		{"ok", []float64{10, 20}, []float64{5}, false},
		{"no computers", nil, []float64{1}, true},
		{"no users", []float64{1}, nil, true},
		{"zero rate", []float64{0, 10}, []float64{1}, true},
		{"negative rate", []float64{-1, 10}, []float64{1}, true},
		{"inf rate", []float64{math.Inf(1)}, []float64{1}, true},
		{"zero arrival", []float64{10}, []float64{0}, true},
		{"negative arrival", []float64{10}, []float64{-1}, true},
		{"overloaded", []float64{10}, []float64{10}, true},
		{"just stable", []float64{10}, []float64{9.999}, false},
	}
	for _, c := range cases {
		_, err := NewSystem(c.rates, c.arrivals)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", c.name, err, c.wantErr)
		}
	}
	_, err := NewSystem([]float64{5}, []float64{7})
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("overload should wrap ErrOverloaded, got %v", err)
	}
}

func TestNewSystemCopiesInput(t *testing.T) {
	rates := []float64{10, 20}
	s, err := NewSystem(rates, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	rates[0] = 999
	if s.Rates[0] != 10 {
		t.Fatal("NewSystem did not copy the rates slice")
	}
}

func TestAggregates(t *testing.T) {
	s := twoBy3()
	if got := s.TotalCapacity(); got != 60 {
		t.Errorf("capacity = %v", got)
	}
	if got := s.TotalArrival(); got != 15 {
		t.Errorf("Phi = %v", got)
	}
	if got := s.Utilization(); got != 0.25 {
		t.Errorf("rho = %v", got)
	}
	if got := s.SpeedSkewness(); got != 3 {
		t.Errorf("skewness = %v", got)
	}
	if s.Computers() != 3 || s.Users() != 2 {
		t.Errorf("dims = %d x %d", s.Users(), s.Computers())
	}
}

func TestProfileConstructors(t *testing.T) {
	s := twoBy3()
	p := ProportionalProfile(s)
	want := []float64{10.0 / 60, 20.0 / 60, 30.0 / 60}
	for i := range p {
		for j := range p[i] {
			if math.Abs(p[i][j]-want[j]) > 1e-15 {
				t.Fatalf("proportional[%d][%d] = %v, want %v", i, j, p[i][j], want[j])
			}
		}
	}
	if err := s.CheckProfile(p); err != nil {
		t.Errorf("proportional profile infeasible: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := Profile{{0.5, 0.5}, {0.5, 0.5}}
	q := p.Clone()
	q[0][0] = 0.9
	if p[0][0] == 0.9 {
		t.Fatal("Clone shares storage")
	}
	s := twoBy3()
	c := s.Clone()
	c.Rates[0] = 1
	if s.Rates[0] == 1 {
		t.Fatal("System.Clone shares storage")
	}
}

// TestDistinctRows pins the row dedup the fleet wire, the snapshot and the
// route table share: rows compare bit for bit (0 and -0 differ, as does a
// row of another width), are numbered by first use, and alias the input.
func TestDistinctRows(t *testing.T) {
	negZero := math.Copysign(0, -1)
	p := Profile{
		{0.5, 0.5, 0},
		{1, 0, 0},
		{0.5, 0.5, 0},
		{0.5, 0.5, negZero},
		{1, 0},
		{1, 0, 0},
	}
	rows, rowOf := DistinctRows(p)
	wantOf := []int32{0, 1, 0, 2, 3, 1}
	if len(rowOf) != len(wantOf) {
		t.Fatalf("rowOf = %v, want %v", rowOf, wantOf)
	}
	for i := range wantOf {
		if rowOf[i] != wantOf[i] {
			t.Fatalf("rowOf = %v, want %v", rowOf, wantOf)
		}
	}
	if len(rows) != 4 {
		t.Fatalf("%d distinct rows, want 4", len(rows))
	}
	for r, first := range []int{0, 1, 3, 4} {
		if &rows[r][0] != &p[first][0] {
			t.Errorf("row %d does not alias user %d's strategy", r, first)
		}
	}
	if rows, rowOf := DistinctRows(nil); rows != nil || len(rowOf) != 0 {
		t.Fatalf("empty profile: rows %v rowOf %v", rows, rowOf)
	}

	// Many distinct rows: 1,000 rows, then the same 1,000 again.
	const distinct = 1000
	q := make(Profile, 2*distinct)
	for i := range q {
		f := float64(i%distinct) / distinct
		q[i] = Strategy{f, 1 - f}
	}
	rows, rowOf = DistinctRows(q)
	if len(rows) != distinct {
		t.Fatalf("%d distinct rows, want %d", len(rows), distinct)
	}
	for i, r := range rowOf {
		if int(r) != i%distinct {
			t.Fatalf("rowOf[%d] = %d, want %d", i, r, i%distinct)
		}
	}
}

func TestLoadsAndAvailableRates(t *testing.T) {
	s := twoBy3()
	p := Profile{
		{1, 0, 0},     // user 0 (phi=5) all on computer 0
		{0, 0.5, 0.5}, // user 1 (phi=10) split on 1 and 2
	}
	loads := s.Loads(p)
	for j, want := range []float64{5, 5, 5} {
		if math.Abs(loads[j]-want) > 1e-12 {
			t.Errorf("load[%d] = %v, want %v", j, loads[j], want)
		}
	}
	// Available to user 0: computer 0 full 10 (only user 0 uses it is
	// irrelevant — availability excludes only user 0's own flow).
	a0 := s.AvailableRates(p, 0)
	for j, want := range []float64{10, 15, 25} {
		if math.Abs(a0[j]-want) > 1e-12 {
			t.Errorf("avail0[%d] = %v, want %v", j, a0[j], want)
		}
	}
	a1 := s.AvailableRates(p, 1)
	for j, want := range []float64{5, 20, 30} {
		if math.Abs(a1[j]-want) > 1e-12 {
			t.Errorf("avail1[%d] = %v, want %v", j, a1[j], want)
		}
	}
}

func TestResponseTimes(t *testing.T) {
	s := twoBy3()
	p := Profile{
		{1, 0, 0},
		{0, 0.5, 0.5},
	}
	f := s.ComputerResponseTimes(p)
	for j, want := range []float64{1.0 / 5, 1.0 / 15, 1.0 / 25} {
		if math.Abs(f[j]-want) > 1e-12 {
			t.Errorf("F[%d] = %v, want %v", j, f[j], want)
		}
	}
	d0 := s.UserResponseTime(p, 0)
	if math.Abs(d0-0.2) > 1e-12 {
		t.Errorf("D0 = %v, want 0.2", d0)
	}
	d1 := s.UserResponseTime(p, 1)
	if want := 0.5/15 + 0.5/25; math.Abs(d1-want) > 1e-12 {
		t.Errorf("D1 = %v, want %v", d1, want)
	}
	all := s.UserResponseTimes(p)
	if math.Abs(all[0]-d0) > 1e-15 || math.Abs(all[1]-d1) > 1e-15 {
		t.Errorf("UserResponseTimes mismatch: %v", all)
	}
	overall := s.OverallResponseTime(p)
	if want := (5*d0 + 10*d1) / 15; math.Abs(overall-want) > 1e-12 {
		t.Errorf("overall = %v, want %v", overall, want)
	}
}

func TestSaturatedResponseTimes(t *testing.T) {
	s, err := NewSystem([]float64{10, 100}, []float64{20, 20})
	if err != nil {
		t.Fatal(err)
	}
	p := Profile{
		{1, 0}, // user 0 dumps 20 on a mu=10 computer: saturated
		{0, 1},
	}
	if d := s.UserResponseTime(p, 0); !math.IsInf(d, 1) {
		t.Errorf("saturated user D = %v, want +Inf", d)
	}
	if d := s.UserResponseTime(p, 1); math.IsInf(d, 1) {
		t.Errorf("unaffected user should be finite, got %v", d)
	}
	if d := s.OverallResponseTime(p); !math.IsInf(d, 1) {
		t.Errorf("overall with saturation = %v, want +Inf", d)
	}
	all := s.UserResponseTimes(p)
	if !math.IsInf(all[0], 1) || math.IsInf(all[1], 1) {
		t.Errorf("UserResponseTimes = %v", all)
	}
}

func TestCheckStrategy(t *testing.T) {
	if err := CheckStrategy(Strategy{0.5, 0.5}, 2); err != nil {
		t.Errorf("valid strategy rejected: %v", err)
	}
	if err := CheckStrategy(Strategy{0.5}, 2); err == nil {
		t.Error("wrong length accepted")
	}
	if err := CheckStrategy(Strategy{-0.1, 1.1}, 2); err == nil {
		t.Error("negative fraction accepted")
	}
	if err := CheckStrategy(Strategy{0.5, 0.4}, 2); err == nil {
		t.Error("non-conserving strategy accepted")
	}
	if err := CheckStrategy(Strategy{math.NaN(), 1}, 2); err == nil {
		t.Error("NaN accepted")
	}
}

func TestCheckProfile(t *testing.T) {
	s := twoBy3()
	if err := s.CheckProfile(ProportionalProfile(s)); err != nil {
		t.Errorf("proportional should be feasible: %v", err)
	}
	if err := s.CheckProfile(Profile{{1, 0, 0}}); err == nil {
		t.Error("wrong user count accepted")
	}
	// Overload computer 0 (mu=10) with both users (15 total).
	bad := Profile{{1, 0, 0}, {1, 0, 0}}
	if err := s.CheckProfile(bad); err == nil {
		t.Error("overloaded profile accepted")
	} else if !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestOverallIsLoadWeightedComputerView(t *testing.T) {
	// Identity: (1/Phi) sum_i phi_i D_i == (1/Phi) sum_j lambda_j F_j.
	s := twoBy3()
	p := Profile{
		{0.2, 0.3, 0.5},
		{0.1, 0.4, 0.5},
	}
	loads := s.Loads(p)
	fs := s.ComputerResponseTimes(p)
	var byComputer float64
	for j := range loads {
		byComputer += loads[j] * fs[j]
	}
	byComputer /= s.TotalArrival()
	if byUser := s.OverallResponseTime(p); math.Abs(byUser-byComputer) > 1e-12 {
		t.Errorf("identity violated: %v vs %v", byUser, byComputer)
	}
}

func TestEpsilonEquilibriumDetectsDeviation(t *testing.T) {
	s := twoBy3()
	// A deliberately bad profile: everything on the slowest machine that
	// still fits. The "best response" oracle proposes proportional, which
	// is strictly better, so this must NOT be an equilibrium.
	p := Profile{
		{0.9, 0.1, 0},
		{0.9, 0.05, 0.05},
	}
	br := func(avail []float64, arrival float64) (Strategy, error) {
		total := 0.0
		for _, a := range avail {
			total += a
		}
		st := make(Strategy, len(avail))
		for j := range st {
			st[j] = avail[j] / total
		}
		return st, nil
	}
	ok, impr, err := s.EpsilonEquilibrium(p, br, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("bad profile certified as equilibrium")
	}
	if impr <= 0 {
		t.Errorf("improvement = %v, want > 0", impr)
	}
}

func TestEpsilonEquilibriumOracleError(t *testing.T) {
	s := twoBy3()
	br := func([]float64, float64) (Strategy, error) {
		return nil, errors.New("boom")
	}
	if _, _, err := s.EpsilonEquilibrium(ProportionalProfile(s), br, 1e-6); err == nil {
		t.Fatal("oracle error swallowed")
	}
}

func TestPriceOfAnarchy(t *testing.T) {
	s := twoBy3()
	p := ProportionalProfile(s)
	d := s.OverallResponseTime(p)
	if got := s.PriceOfAnarchy(p, d); math.Abs(got-1) > 1e-12 {
		t.Errorf("PoA vs itself = %v, want 1", got)
	}
	if got := s.PriceOfAnarchy(p, d/2); math.Abs(got-2) > 1e-12 {
		t.Errorf("PoA = %v, want 2", got)
	}
	if got := s.PriceOfAnarchy(p, 0); !math.IsInf(got, 1) {
		t.Errorf("PoA with opt=0 = %v, want +Inf", got)
	}
}

func TestLoadsConservationProperty(t *testing.T) {
	// For any feasible profile, sum_j lambda_j == Phi.
	s := twoBy3()
	f := func(raw [2][3]float64) bool {
		p := NewProfile(2, 3)
		for i := range raw {
			var sum float64
			w := make([]float64, 3)
			for j := range raw[i] {
				v := math.Abs(raw[i][j])
				if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
					v = 1
				}
				w[j] = math.Mod(v, 100) + 1e-3
				sum += w[j]
			}
			for j := range w {
				p[i][j] = w[j] / sum
			}
		}
		loads := s.Loads(p)
		var tot float64
		for _, l := range loads {
			tot += l
		}
		return math.Abs(tot-s.TotalArrival()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAvailablePlusOwnLoadIsCapacityProperty(t *testing.T) {
	// mu_j - avail_j^i == lambda_j - s_ij*phi_i for all i, j.
	s := twoBy3()
	p := Profile{
		{0.3, 0.3, 0.4},
		{0.25, 0.25, 0.5},
	}
	loads := s.Loads(p)
	for i := range p {
		avail := s.AvailableRates(p, i)
		for j := range avail {
			othersLoad := loads[j] - p[i][j]*s.Arrivals[i]
			if math.Abs((s.Rates[j]-avail[j])-othersLoad) > 1e-9 {
				t.Fatalf("avail identity violated at i=%d j=%d", i, j)
			}
		}
	}
}
