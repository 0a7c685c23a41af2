package megascale_test

import (
	"slices"
	"strings"
	"testing"

	"nashlb/internal/game"
	"nashlb/internal/megascale"
	"nashlb/internal/numeric"
	"nashlb/internal/testutil"
)

func TestFromSystemRoundTrip(t *testing.T) {
	sys, err := game.NewSystem([]float64{10, 20}, []float64{1, 2, 1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	cs, userToClass := megascale.FromSystem(sys)
	if got := cs.ClassCount(); got != 3 {
		t.Fatalf("classes = %d, want 3", got)
	}
	wantMap := []int{0, 1, 0, 2, 1}
	for i, c := range userToClass {
		if c != wantMap[i] {
			t.Fatalf("userToClass = %v, want %v", userToClass, wantMap)
		}
	}
	if cs.Classes[0].Count != 2 || cs.Classes[1].Count != 2 || cs.Classes[2].Count != 1 {
		t.Fatalf("counts = %+v", cs.Classes)
	}
	if cs.Users() != 5 {
		t.Fatalf("users = %d, want 5", cs.Users())
	}
	if !numeric.EqualWithin(cs.TotalArrival(), sys.TotalArrival(), 1e-12) {
		t.Fatalf("total arrival %g vs %g", cs.TotalArrival(), sys.TotalArrival())
	}
	if !numeric.EqualWithin(cs.Utilization(), sys.Utilization(), 1e-12) {
		t.Fatalf("utilization %g vs %g", cs.Utilization(), sys.Utilization())
	}

	// ExpandSystem groups members consecutively in class order.
	back, err := cs.ExpandSystem()
	if err != nil {
		t.Fatal(err)
	}
	wantArrivals := []float64{1, 1, 2, 2, 3}
	if len(back.Arrivals) != len(wantArrivals) {
		t.Fatalf("expanded arrivals %v", back.Arrivals)
	}
	for i := range wantArrivals {
		if back.Arrivals[i] != wantArrivals[i] {
			t.Fatalf("expanded arrivals %v, want %v", back.Arrivals, wantArrivals)
		}
	}

	// A constrained class cannot be expanded densely.
	ccs, err := megascale.NewClassSystem([]float64{10, 20}, []megascale.Class{
		{Phi: 1, Count: 2, Machines: []int32{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ccs.ExpandSystem(); err == nil {
		t.Fatal("expected error expanding a constrained class")
	}
}

func TestProfileExpandAndLoads(t *testing.T) {
	gen := testutil.InstanceGen{MaxComputers: 8, MaxUsers: 6}
	for idx := 0; idx < 30; idx++ {
		sys, err := gen.Draw(0xfeed, idx)
		if err != nil {
			t.Fatal(err)
		}
		cs, userToClass := megascale.FromSystem(sys)
		p := megascale.ProportionalClassProfile(cs)
		// Every row sums to 1.
		for c := 0; c < p.Rows(); c++ {
			_, vals := p.Row(c)
			var sum numeric.Accumulator
			for _, v := range vals {
				sum.Add(v)
			}
			if !numeric.EqualWithin(sum.Value(), 1, 1e-12) {
				t.Fatalf("instance %d: class %d row sums to %g", idx, c, sum.Value())
			}
		}
		// Proportional rows match the dense proportional profile exactly.
		dense := game.ProportionalProfile(sys)
		expanded, err := p.ExpandUsers(cs, userToClass)
		if err != nil {
			t.Fatal(err)
		}
		for i := range dense {
			if d := numeric.MaxAbsDiff(dense[i], expanded[i]); d != 0 {
				t.Fatalf("instance %d: user %d proportional row differs by %g", idx, i, d)
			}
		}
		// Sparse loads equal dense loads of the expansion.
		sparse := p.Loads(cs)
		denseLoads := sys.Loads(expanded)
		for j := range sparse {
			if !numeric.EqualWithin(sparse[j], denseLoads[j], 1e-12) {
				t.Fatalf("instance %d: machine %d load %g vs %g", idx, j, sparse[j], denseLoads[j])
			}
		}
		if err := p.CheckFeasible(cs); err != nil {
			t.Fatalf("instance %d: %v", idx, err)
		}
		if p.NNZ() != cs.ClassCount()*sys.Computers() {
			t.Fatalf("instance %d: nnz %d", idx, p.NNZ())
		}
		if p.MemoryBytes() <= 0 {
			t.Fatalf("instance %d: memory bytes %d", idx, p.MemoryBytes())
		}
		q := p.Clone()
		_, qv := q.Row(0)
		_, pv := p.Row(0)
		if &pv[0] == &qv[0] || !slices.Equal(pv, qv) {
			t.Fatal("clone aliases or differs from the original")
		}
	}
}

func TestClassSystemValidate(t *testing.T) {
	cases := []struct {
		name    string
		rates   []float64
		classes []megascale.Class
		wantErr string
	}{
		{"no machines", nil, []megascale.Class{{Phi: 1, Count: 1}}, "no machines"},
		{"no classes", []float64{10}, nil, "no user classes"},
		{"bad rate", []float64{0}, []megascale.Class{{Phi: 1, Count: 1}}, "invalid rate"},
		{"bad phi", []float64{10}, []megascale.Class{{Phi: -1, Count: 1}}, "invalid arrival"},
		{"bad count", []float64{10}, []megascale.Class{{Phi: 1, Count: 0}}, "count"},
		{"empty machine list", []float64{10}, []megascale.Class{{Phi: 1, Count: 1, Machines: []int32{}}}, "allows no machines"},
		{"unsorted machines", []float64{10, 20}, []megascale.Class{{Phi: 1, Count: 1, Machines: []int32{1, 0}}}, "not sorted"},
		{"dup machines", []float64{10, 20}, []megascale.Class{{Phi: 1, Count: 1, Machines: []int32{1, 1}}}, "not sorted"},
		{"out of range", []float64{10, 20}, []megascale.Class{{Phi: 1, Count: 1, Machines: []int32{2}}}, "references machine"},
		{"class overload", []float64{10, 20}, []megascale.Class{{Phi: 6, Count: 2, Machines: []int32{0}}}, "reachable capacity"},
		{"system overload", []float64{10, 20}, []megascale.Class{{Phi: 10, Count: 3}}, "aggregate processing rate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := megascale.NewClassSystem(tc.rates, tc.classes)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestSolveFromShapeMismatch(t *testing.T) {
	cs1, err := megascale.NewClassSystem([]float64{10, 20}, []megascale.Class{{Phi: 1, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	cs2, err := megascale.NewClassSystem([]float64{10, 20, 30}, []megascale.Class{{Phi: 1, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	p1 := megascale.ProportionalClassProfile(cs1)
	if _, err := megascale.SolveFrom(cs2, p1, megascale.Options{}); err == nil {
		t.Fatal("expected shape mismatch error")
	}
	if _, err := megascale.SolveFrom(cs1, nil, megascale.Options{}); err == nil {
		t.Fatal("expected nil-profile error")
	}
}
