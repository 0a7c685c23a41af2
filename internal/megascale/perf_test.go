package megascale

import (
	"runtime"
	"testing"

	"nashlb/internal/core"
)

// benchClassSystem builds a deterministic class system in the paper's
// Table 1 style: machines cycle through four speed classes, classes get a
// mildly heterogeneous traffic mix scaled to the target utilization.
func benchClassSystem(machines, classes int, users int64, rho float64) *ClassSystem {
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
	cls := make([]Class, classes)
	base := users / int64(classes)
	rem := users % int64(classes)
	for c := range cls {
		count := base
		if int64(c) < rem {
			count++
		}
		share := rho * capacity * weights[c] / wsum
		cls[c] = Class{Phi: share / float64(count), Count: int(count)}
	}
	cs, err := NewClassSystem(rates, cls)
	if err != nil {
		panic(err)
	}
	return cs
}

// TestMegascaleSolveAllocs gates the steady-state allocation behaviour of
// the round loop: after warm-up, a full best-reply round — including forced
// cache revalidation and re-solves — must not allocate.
func TestMegascaleSolveAllocs(t *testing.T) {
	cs := benchClassSystem(200, 40, 20_000, 0.7)
	s := newSolver(cs, ProportionalClassProfile(cs))
	for i := 0; i < 3; i++ {
		if _, _, err := s.round(); err != nil {
			t.Fatal(err)
		}
	}
	var roundErr error
	allocs := testing.AllocsPerRun(100, func() {
		// Nudge one machine's load so every class stays dirty and the
		// full scan + solve + install path runs, not just the skip path.
		s.tick++
		s.lastChange = s.tick
		s.loads[0] *= 1.0000001
		s.stamp[0] = s.tick
		if _, _, err := s.round(); err != nil {
			roundErr = err
		}
	})
	if roundErr != nil {
		t.Fatal(roundErr)
	}
	if allocs != 0 {
		t.Fatalf("steady-state round allocates %.1f times, want 0", allocs)
	}
}

// TestMegascaleSolveResultAllocs gates what a solve stores: on EXT11's shape
// of 10,000 machines in four types shared by 200 classes, Solve must
// allocate under 1 MiB per call and report StateBytes under 1 MiB. A result
// holding one fraction per (class, machine) would hold 2M of them, 16 MB.
func TestMegascaleSolveResultAllocs(t *testing.T) {
	cs := benchClassSystem(10_000, 200, 1_000_000, 0.7)
	opts := Options{Init: core.InitProportional, Epsilon: 1e-6 * float64(cs.Users())}
	const budget, calls = 1 << 20, 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var res *Result
	for i := 0; i < calls; i++ {
		var err error
		if res, err = Solve(cs, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("Solve allocates %d bytes per call, StateBytes %d", perCall, res.StateBytes)
	if perCall >= budget {
		t.Errorf("Solve allocates %d bytes per call, want under %d", perCall, budget)
	}
	if res.StateBytes >= budget {
		t.Errorf("StateBytes %d, want under %d", res.StateBytes, budget)
	}
}

// BenchmarkCoreMegascaleSolve is the bench.sh regression row: a full
// class-aggregated equilibrium solve of 1000 machines shared by 100k users
// in 100 classes.
func BenchmarkCoreMegascaleSolve(b *testing.B) {
	cs := benchClassSystem(1000, 100, 100_000, 0.7)
	eps := 1e-6 * float64(cs.Users())
	b.ReportAllocs()
	b.ResetTimer()
	var rounds, solves, skips int64
	for i := 0; i < b.N; i++ {
		res, err := Solve(cs, Options{Init: core.InitProportional, Epsilon: eps})
		if err != nil {
			b.Fatal(err)
		}
		rounds += int64(res.Rounds)
		solves += res.Solves
		skips += res.Skips
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(solves)/float64(b.N), "solves/op")
	b.ReportMetric(float64(skips)/float64(b.N), "skips/op")
}
