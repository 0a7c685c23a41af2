package megascale_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"nashlb/internal/core"
	"nashlb/internal/game"
	"nashlb/internal/megascale"
	"nashlb/internal/numeric"
	"nashlb/internal/rng"
	"nashlb/internal/testutil"
)

// hasDuplicates reports whether two entries are bitwise identical. Users
// sharing an arrival rate are merged by FromSystem, and the dense and class
// iterations then follow different (both correct) trajectories; machines
// sharing a rate are collapsed into one machine type.
func hasDuplicates(xs []float64) bool {
	seen := map[float64]bool{}
	for _, x := range xs {
		if seen[x] {
			return true
		}
		seen[x] = true
	}
	return false
}

// TestSolveSystemMatchesDenseSingletons pins the class engine to the dense
// solver on random instances where every class has size 1: identical
// convergence verdicts, round counts within one, and profiles, user times
// and overall times within 1e-9.
func TestSolveSystemMatchesDenseSingletons(t *testing.T) {
	gen := testutil.InstanceGen{MaxComputers: 8, MaxUsers: 6}
	const instances = 150
	for idx := 0; idx < instances; idx++ {
		sys, err := gen.Draw(0x51ab, idx)
		if err != nil {
			t.Fatalf("instance %d: %v", idx, err)
		}
		if hasDuplicates(sys.Arrivals) {
			continue
		}
		init := core.InitZero
		if idx%2 == 1 {
			init = core.InitProportional
		}
		opts := core.Options{Init: init}
		want, errDense := core.Solve(sys, opts)
		got, errClass := megascale.SolveSystem(sys, opts)
		checkMatchesDense(t, fmt.Sprintf("instance %d (%v)", idx, init), want, errDense, got, errClass)
	}
}

// checkMatchesDense compares a class-engine result with the dense solver's
// on the same game: identical error and convergence verdicts, round counts
// within one, and profiles, user times and overall times within 1e-9.
func checkMatchesDense(t *testing.T, what string, want *core.Result, errDense error, got *core.Result, errClass error) {
	t.Helper()
	if (errDense == nil) != (errClass == nil) {
		t.Fatalf("%s: dense err=%v, class err=%v", what, errDense, errClass)
	}
	if errDense != nil {
		return
	}
	if want.Converged != got.Converged {
		t.Fatalf("%s: converged dense=%v class=%v", what, want.Converged, got.Converged)
	}
	if d := want.Rounds - got.Rounds; d < -1 || d > 1 {
		t.Errorf("%s: rounds dense=%d class=%d", what, want.Rounds, got.Rounds)
	}
	for i := range want.Profile {
		if d := numeric.MaxAbsDiff(want.Profile[i], got.Profile[i]); d > 1e-9 {
			t.Fatalf("%s: user %d strategy differs by %g", what, i, d)
		}
	}
	for i := range want.UserTimes {
		if !numeric.EqualWithin(want.UserTimes[i], got.UserTimes[i], 1e-9) {
			t.Fatalf("%s: user %d time dense=%g class=%g", what, i, want.UserTimes[i], got.UserTimes[i])
		}
	}
	if !numeric.EqualWithin(want.OverallTime, got.OverallTime, 1e-9) {
		t.Fatalf("%s: overall dense=%g class=%g", what, want.OverallTime, got.OverallTime)
	}
}

// table1Speeds are the computer speeds of the paper's Table 1 (jobs/s).
var table1Speeds = []float64{10, 20, 50, 100}

// withTable1Speeds redraws every machine rate of sys from the Table-1
// speeds, so machines repeat rates, and rescales the arrivals to keep the
// utilization.
func withTable1Speeds(sys *game.System, seed uint64, idx int) (*game.System, error) {
	r := rng.New(rng.SplitSeed(seed, uint64(idx)))
	rates := make([]float64, len(sys.Rates))
	for j := range rates {
		rates[j] = table1Speeds[r.Intn(len(table1Speeds))]
	}
	scale := numeric.Sum(rates) / sys.TotalCapacity()
	arrivals := make([]float64, len(sys.Arrivals))
	for i, phi := range sys.Arrivals {
		arrivals[i] = phi * scale
	}
	return game.NewSystem(rates, arrivals)
}

// TestSolveSystemMatchesDenseDuplicateRates is the grouped counterpart of
// TestSolveSystemMatchesDenseSingletons: with rates drawn from the Table-1
// speeds, machines repeat rates and the class engine solves over machine
// types, while core.Solve keeps one entry per machine. The two must agree
// to the same tolerances.
func TestSolveSystemMatchesDenseDuplicateRates(t *testing.T) {
	gen := testutil.InstanceGen{MaxComputers: 8, MaxUsers: 6}
	const instances = 150
	grouped := 0
	for idx := 0; idx < instances; idx++ {
		base, err := gen.Draw(0xd0b1e, idx)
		if err != nil {
			t.Fatalf("instance %d: %v", idx, err)
		}
		sys, err := withTable1Speeds(base, 0xd0b1e, idx)
		if err != nil {
			t.Fatalf("instance %d: %v", idx, err)
		}
		if hasDuplicates(sys.Arrivals) {
			continue
		}
		if hasDuplicates(sys.Rates) {
			grouped++
		}
		init := core.InitZero
		if idx%2 == 1 {
			init = core.InitProportional
		}
		opts := core.Options{Init: init}
		want, errDense := core.Solve(sys, opts)
		got, errClass := megascale.SolveSystem(sys, opts)
		checkMatchesDense(t, fmt.Sprintf("instance %d (%v)", idx, init), want, errDense, got, errClass)
	}
	if grouped < instances/2 {
		t.Fatalf("only %d of %d instances repeat a machine rate", grouped, instances)
	}
}

// replicate builds the dense system in which class c's members are the
// consecutive users [starts[c], starts[c]+Count_c).
func replicate(cs *megascale.ClassSystem) (*game.System, []int, error) {
	var arrivals []float64
	starts := make([]int, len(cs.Classes))
	for c, cl := range cs.Classes {
		starts[c] = len(arrivals)
		for i := 0; i < cl.Count; i++ {
			arrivals = append(arrivals, cl.Phi)
		}
	}
	sys, err := game.NewSystem(cs.Rates, arrivals)
	return sys, starts, err
}

// TestSolveFromUnequalStartMatchesDense starts two equal-rate machines from
// different fractions in one class row. They must stay separate types, so
// the class solver retraces core.SolveFrom from the same dense start: the
// first round's norm agrees as well as the result.
func TestSolveFromUnequalStartMatchesDense(t *testing.T) {
	sys, err := game.NewSystem([]float64{10, 20, 20, 50, 10}, []float64{3.1, 7.3, 11.9, 5.3})
	if err != nil {
		t.Fatal(err)
	}
	cs, userToClass := megascale.FromSystem(sys)
	dense := game.ProportionalProfile(sys)
	dense[1] = game.Strategy{0.2, 0.1, 0.3, 0.3, 0.1}
	rows := make([][]float64, cs.ClassCount())
	for i, c := range userToClass {
		rows[c] = dense[i]
	}
	start, err := megascale.NewClassProfile(cs, rows)
	if err != nil {
		t.Fatal(err)
	}
	want, errDense := core.SolveFrom(sys, dense, core.Options{})
	res, errClass := megascale.SolveFrom(cs, start, megascale.Options{})
	if errDense != nil || errClass != nil {
		t.Fatalf("dense err=%v, class err=%v", errDense, errClass)
	}
	profile, err := res.Profile.ExpandUsers(cs, userToClass)
	if err != nil {
		t.Fatal(err)
	}
	got := &core.Result{
		Profile:     profile,
		Rounds:      res.Rounds,
		Converged:   res.Converged,
		UserTimes:   make([]float64, len(userToClass)),
		OverallTime: res.OverallTime,
	}
	for i, c := range userToClass {
		got.UserTimes[i] = res.ClassTimes[c]
	}
	checkMatchesDense(t, "warm start", want, errDense, got, errClass)
	if !numeric.EqualWithin(want.Norms[0], res.Norms[0], 1e-9) {
		t.Fatalf("round-1 norm dense=%g class=%g: the unequal start was not kept", want.Norms[0], res.Norms[0])
	}
}

// TestSolveConstrainedEqualRatesStaySeparate: machines 0 and 1 share a rate
// but admit different classes, so they are different types and carry
// different loads. The result must certify as an equilibrium at 1e-9.
func TestSolveConstrainedEqualRatesStaySeparate(t *testing.T) {
	rates := []float64{20, 20, 50, 10, 20}
	classes := []megascale.Class{
		{Phi: 0.5, Count: 30, Machines: []int32{0, 2}},
		{Phi: 1, Count: 10, Machines: []int32{1, 2, 3, 4}},
		{Phi: 10, Count: 5},
	}
	cs, err := megascale.NewClassSystem(rates, classes)
	if err != nil {
		t.Fatal(err)
	}
	for _, init := range []core.Init{core.InitZero, core.InitProportional} {
		res, err := megascale.Solve(cs, megascale.Options{Init: init, Epsilon: 1e-13})
		if err != nil {
			t.Fatalf("%v: %v", init, err)
		}
		if err := res.Profile.CheckFeasible(cs); err != nil {
			t.Fatalf("%v: %v", init, err)
		}
		if ok, worst, err := megascale.VerifyEquilibrium(cs, res.Profile, 1e-9); err != nil || !ok {
			t.Fatalf("%v: not an equilibrium (worst=%g, err=%v)", init, worst, err)
		}
		loads := res.Profile.Loads(cs)
		if numeric.EqualWithin(loads[0], loads[1], 1e-6) {
			t.Fatalf("%v: machines 0 and 1 carry equal loads %g; their class sets differ", init, loads[0])
		}
		// Machines 1 and 4 admit the same classes: one type, equal loads.
		if loads[1] != loads[4] {
			t.Fatalf("%v: machines 1 and 4 carry loads %g and %g", init, loads[1], loads[4])
		}
	}
}

// TestSolveSingleActiveTypeSplitsEvenly: when the only active type holds
// several machines, the single-active shortcut and the cancellation
// fallback must split the class evenly over the type's machines rather
// than send everything to one of them.
func TestSolveSingleActiveTypeSplitsEvenly(t *testing.T) {
	// At rate 1.004e20 and a 1e-305 arrival rate the water-filling
	// fractions of two equal-capacity types cancel to exactly zero, so the
	// fallback runs; the constrained class splits the three equal-rate
	// machines into the types {0, 1} and {2}.
	const huge = 1.004e20
	cases := []struct {
		name    string
		rates   []float64
		classes []megascale.Class
		// dense marks a game of single users the dense solver can check.
		dense bool
	}{
		{"shortcut", []float64{100, 100, 1}, []megascale.Class{{Phi: 1, Count: 1}}, true},
		{"shortcut weighted", []float64{100, 100, 1}, []megascale.Class{{Phi: 0.25, Count: 4}}, false},
		{"cancellation fallback", []float64{huge, huge, huge}, []megascale.Class{
			{Phi: 1e-305, Count: 1},
			{Phi: 1e-305, Count: 1, Machines: []int32{0, 1}},
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs, err := megascale.NewClassSystem(tc.rates, tc.classes)
			if err != nil {
				t.Fatal(err)
			}
			res, err := megascale.Solve(cs, megascale.Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, vals := res.Profile.Row(0)
			if vals[0] != 0.5 || vals[1] != 0.5 || vals[2] != 0 {
				t.Fatalf("class 0 split %v, want [0.5 0.5 0]", vals)
			}
			if ok, worst, err := megascale.VerifyEquilibrium(cs, res.Profile, 1e-9); err != nil || !ok {
				t.Fatalf("not an equilibrium (worst=%g, err=%v)", worst, err)
			}
			if !tc.dense {
				return
			}
			sys, err := cs.ExpandSystem()
			if err != nil {
				t.Fatal(err)
			}
			want, errDense := core.Solve(sys, core.Options{})
			got, errClass := megascale.SolveSystem(sys, core.Options{})
			checkMatchesDense(t, tc.name, want, errDense, got, errClass)
		})
	}
}

// TestSolveMatchesDenseReplicatedClasses checks the weighted within-class
// solve against the dense solver on replicated populations: the equilibrium
// is unique, so machine loads, member times, and the overall time must
// agree even though the two iterations take different paths.
func TestSolveMatchesDenseReplicatedClasses(t *testing.T) {
	gen := testutil.InstanceGen{MaxComputers: 6, MaxUsers: 3, MaxUtilization: 0.85}
	const instances = 40
	for idx := 0; idx < instances; idx++ {
		base, err := gen.Draw(0xc1a5, idx)
		if err != nil {
			t.Fatalf("instance %d: %v", idx, err)
		}
		classes := make([]megascale.Class, len(base.Arrivals))
		for i, phi := range base.Arrivals {
			count := 1 + (idx+7*i)%8
			// Keep the aggregate arrival equal to the base instance so the
			// replicated system stays feasible.
			classes[i] = megascale.Class{Phi: phi / float64(count), Count: count}
		}
		cs, err := megascale.NewClassSystem(base.Rates, classes)
		if err != nil {
			t.Fatalf("instance %d: %v", idx, err)
		}
		dense, starts, err := replicate(cs)
		if err != nil {
			t.Fatalf("instance %d: %v", idx, err)
		}
		opts := core.Options{Init: core.InitProportional, Epsilon: 1e-11}
		want, errDense := core.Solve(dense, opts)
		got, errClass := megascale.Solve(cs, megascale.Options{Init: core.InitProportional, Epsilon: 1e-11})
		if errDense != nil || errClass != nil {
			t.Fatalf("instance %d: dense err=%v, class err=%v", idx, errDense, errClass)
		}

		denseLoads := dense.Loads(want.Profile)
		classLoads := got.Profile.Loads(cs)
		for j := range denseLoads {
			if !numeric.EqualWithin(denseLoads[j], classLoads[j], 1e-7) {
				t.Fatalf("instance %d: machine %d load dense=%g class=%g", idx, j, denseLoads[j], classLoads[j])
			}
		}
		for c, cl := range cs.Classes {
			for i := starts[c]; i < starts[c]+cl.Count; i++ {
				if !numeric.EqualWithin(want.UserTimes[i], got.ClassTimes[c], 1e-6) {
					t.Fatalf("instance %d: class %d member %d time dense=%g class=%g",
						idx, c, i, want.UserTimes[i], got.ClassTimes[c])
				}
			}
		}
		if !numeric.EqualWithin(want.OverallTime, got.OverallTime, 1e-7) {
			t.Fatalf("instance %d: overall dense=%g class=%g", idx, want.OverallTime, got.OverallTime)
		}
		if ok, worst, err := megascale.VerifyEquilibrium(cs, got.Profile, 1e-6); err != nil || !ok {
			t.Fatalf("instance %d: not an equilibrium (worst=%g, err=%v)", idx, worst, err)
		}
	}
}

// TestSolveConstrainedClasses exercises machine-constrained classes, which
// the dense model cannot express: the solution must be feasible, confined
// to the allowed machines by construction, and an equilibrium of the
// constrained game.
func TestSolveConstrainedClasses(t *testing.T) {
	rates := []float64{10, 20, 50, 100, 40, 5}
	classes := []megascale.Class{
		{Phi: 0.2, Count: 100, Machines: []int32{0, 1, 2}},
		{Phi: 0.5, Count: 40, Machines: []int32{2, 3, 4}},
		{Phi: 0.8, Count: 10, Machines: nil},
		{Phi: 4, Count: 3, Machines: []int32{3}},
	}
	cs, err := megascale.NewClassSystem(rates, classes)
	if err != nil {
		t.Fatal(err)
	}
	for _, init := range []core.Init{core.InitZero, core.InitProportional} {
		res, err := megascale.Solve(cs, megascale.Options{Init: init})
		if err != nil {
			t.Fatalf("%v: %v", init, err)
		}
		if !res.Converged {
			t.Fatalf("%v: did not converge", init)
		}
		if err := res.Profile.CheckFeasible(cs); err != nil {
			t.Fatalf("%v: %v", init, err)
		}
		if ok, worst, err := megascale.VerifyEquilibrium(cs, res.Profile, 1e-6); err != nil || !ok {
			t.Fatalf("%v: not an equilibrium (worst=%g, err=%v)", init, worst, err)
		}
		// The single-machine class must send everything to its machine.
		_, vals := res.Profile.Row(3)
		if len(vals) != 1 || vals[0] != 1 {
			t.Fatalf("%v: single-machine class got %v", init, vals)
		}
		for c := range classes {
			if d := res.ClassTimes[c]; !(d > 0) || math.IsInf(d, 0) {
				t.Fatalf("%v: class %d time %g", init, c, d)
			}
		}
	}
}

// TestIncrementalInvariance checks that the incremental machinery is purely
// an optimization: solving with every refresh cadence — including the
// non-incremental every-round refresh and no refresh at all — lands on the
// same answer.
func TestIncrementalInvariance(t *testing.T) {
	gen := testutil.InstanceGen{MaxComputers: 8, MaxUsers: 5}
	for idx := 0; idx < 25; idx++ {
		base, err := gen.Draw(0x1234, idx)
		if err != nil {
			t.Fatalf("instance %d: %v", idx, err)
		}
		classes := make([]megascale.Class, len(base.Arrivals))
		for i, phi := range base.Arrivals {
			count := 1 + (3*idx+i)%5
			classes[i] = megascale.Class{Phi: phi / float64(count), Count: count}
		}
		cs, err := megascale.NewClassSystem(base.Rates, classes)
		if err != nil {
			t.Fatalf("instance %d: %v", idx, err)
		}
		var ref *megascale.Result
		for _, every := range []int{1, 7, 0, -1} {
			res, err := megascale.Solve(cs, megascale.Options{Init: core.InitZero, RefreshEvery: every})
			if err != nil {
				t.Fatalf("instance %d (refresh %d): %v", idx, every, err)
			}
			cells := int64(res.Rounds) * int64(len(cs.Classes))
			if res.Solves+res.Skips != cells {
				t.Fatalf("instance %d (refresh %d): solves %d + skips %d != cells %d",
					idx, every, res.Solves, res.Skips, cells)
			}
			if ref == nil {
				ref = res
				continue
			}
			if d := ref.Rounds - res.Rounds; d < -1 || d > 1 {
				t.Errorf("instance %d (refresh %d): rounds %d vs %d", idx, every, res.Rounds, ref.Rounds)
			}
			for c := range cs.Classes {
				_, wantVals := ref.Profile.Row(c)
				_, gotVals := res.Profile.Row(c)
				if d := numeric.MaxAbsDiff(wantVals, gotVals); d > 1e-9 {
					t.Fatalf("instance %d (refresh %d): class %d fractions differ by %g", idx, every, c, d)
				}
			}
		}
	}
}

// TestDirtySkipsDisjointClasses checks the dirty tracking end to end: two
// classes on disjoint machine sets cannot invalidate each other, so both
// are skipped in round 2 and the iteration converges with a zero norm.
func TestDirtySkipsDisjointClasses(t *testing.T) {
	rates := []float64{10, 20, 50, 30, 40, 5}
	classes := []megascale.Class{
		{Phi: 0.3, Count: 50, Machines: []int32{0, 1, 2}},
		{Phi: 0.4, Count: 40, Machines: []int32{3, 4, 5}},
	}
	cs, err := megascale.NewClassSystem(rates, classes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := megascale.Solve(cs, megascale.Options{Init: core.InitZero})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 || res.Solves != 2 || res.Skips != 2 {
		t.Fatalf("rounds=%d solves=%d skips=%d, want 2/2/2", res.Rounds, res.Solves, res.Skips)
	}
	if res.Norms[1] != 0 {
		t.Fatalf("round-2 norm %g, want exactly 0", res.Norms[1])
	}
}

// TestSolveFromWarmStart checks that warm-starting from a previous
// equilibrium after a small parameter change converges in fewer rounds than
// solving cold.
func TestSolveFromWarmStart(t *testing.T) {
	rates := []float64{10, 20, 50, 100, 15, 25, 60, 80}
	classes := []megascale.Class{
		{Phi: 0.05, Count: 1000},
		{Phi: 0.125, Count: 400},
		{Phi: 0.7, Count: 50},
		{Phi: 2.5, Count: 20},
		{Phi: 0.01, Count: 8000},
	}
	cs, err := megascale.NewClassSystem(rates, classes)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := megascale.Solve(cs, megascale.Options{Init: core.InitProportional})
	if err != nil {
		t.Fatal(err)
	}
	perturbed := append([]megascale.Class(nil), classes...)
	perturbed[1].Phi *= 1.001
	cs2, err := megascale.NewClassSystem(rates, perturbed)
	if err != nil {
		t.Fatal(err)
	}
	cold2, err := megascale.Solve(cs2, megascale.Options{Init: core.InitProportional})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := megascale.SolveFrom(cs2, cold.Profile, megascale.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Converged {
		t.Fatal("warm start did not converge")
	}
	if warm.Rounds >= cold2.Rounds {
		t.Errorf("warm start took %d rounds, cold %d", warm.Rounds, cold2.Rounds)
	}
	if ok, worst, err := megascale.VerifyEquilibrium(cs2, warm.Profile, 1e-6); err != nil || !ok {
		t.Fatalf("warm-start result not an equilibrium (worst=%g, err=%v)", worst, err)
	}
}

// TestSolveInfeasibleContention: two classes individually feasible but
// jointly over machine 0's capacity must surface ErrInsufficientCapacity
// from the best response, exactly like the dense solver.
func TestSolveInfeasibleContention(t *testing.T) {
	rates := []float64{1, 100}
	classes := []megascale.Class{
		{Phi: 0.6, Count: 1, Machines: []int32{0}},
		{Phi: 0.6, Count: 1, Machines: []int32{0}},
	}
	cs, err := megascale.NewClassSystem(rates, classes)
	if err != nil {
		t.Fatal(err)
	}
	_, err = megascale.Solve(cs, megascale.Options{})
	if !errors.Is(err, core.ErrInsufficientCapacity) {
		t.Fatalf("got %v, want ErrInsufficientCapacity", err)
	}
}

// TestSolveSystemNotConverged mirrors core.Solve's contract: on round
// exhaustion the partial result comes back alongside ErrNotConverged.
func TestSolveSystemNotConverged(t *testing.T) {
	sys, err := game.NewSystem([]float64{10, 20, 30}, []float64{5, 7, 11})
	if err != nil {
		t.Fatal(err)
	}
	res, err := megascale.SolveSystem(sys, core.Options{MaxRounds: 1, Epsilon: 1e-15})
	if !errors.Is(err, core.ErrNotConverged) {
		t.Fatalf("got %v, want ErrNotConverged", err)
	}
	if res == nil || res.Converged || res.Rounds != 1 {
		t.Fatalf("partial result %+v", res)
	}
}
