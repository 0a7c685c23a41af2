package megascale

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"nashlb/internal/core"
	"nashlb/internal/game"
)

// TestCheckFeasibleGrouped checks CheckFeasible on profiles over machine
// types: each bad profile is rejected with the message the per-machine
// profile of the same rows gets (same class, same machine position), and a
// solved profile passes.
func TestCheckFeasibleGrouped(t *testing.T) {
	// Types: {0, 2, 5} (rate 10), {1, 4} and {7} (rate 20, split by class
	// 1's row), {3, 6} (rate 50). Class 1's row holds types 0, 2 and 3,
	// i.e. machines 0, 2, 3, 5, 6 and 7.
	cs, err := NewClassSystem([]float64{10, 20, 10, 50, 20, 10, 50, 20}, []Class{
		{Phi: 2, Count: 20},
		{Phi: 1, Count: 30, Machines: []int32{0, 2, 3, 5, 6, 7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(cs, Options{Init: core.InitProportional})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Profile.size, []float64{3, 2, 2, 1}) {
		t.Fatalf("type sizes %v, want [3 2 2 1]", res.Profile.size)
	}
	if err := res.Profile.CheckFeasible(cs); err != nil {
		t.Fatalf("solved profile rejected: %v", err)
	}

	// set gives class c the fraction f on each machine of type typ.
	type set struct {
		c   int
		typ int32
		f   float64
	}
	cases := []struct {
		name string
		sets []set
		want string
	}{
		{"NaN fraction", []set{{1, 2, math.NaN()}},
			"class 1 has negative fraction s[2]=NaN"},
		{"negative fraction", []set{{0, 2, -2 * game.FeasibilityTol}},
			"class 0 has negative fraction s[3]=-2e-09"},
		{"type fractions sum to 1 without sizes", []set{{0, 0, 0.25}, {0, 1, 0.25}, {0, 2, 0.25}, {0, 3, 0.25}},
			"class 0 fractions sum to 2, want 1"},
		{"overloaded type", []set{{0, 0, 0}, {0, 1, 0}, {0, 2, 0}, {0, 3, 1}},
			"machine 7 overloaded"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := res.Profile.Clone()
			for _, s := range tc.sets {
				types, fracs := p.typeRow(s.c)
				k, ok := slices.BinarySearch(types, s.typ)
				if !ok {
					t.Fatalf("class %d has no type %d", s.c, s.typ)
				}
				fracs[k] = s.f
			}
			rows := make([][]float64, p.Rows())
			for c := range rows {
				_, vals := p.Row(c)
				rows[c] = slices.Clone(vals)
			}
			perMachine, err := NewClassProfile(cs, rows)
			if err != nil {
				t.Fatal(err)
			}
			got, want := p.CheckFeasible(cs), perMachine.CheckFeasible(cs)
			if !errors.Is(got, game.ErrInfeasible) || !errors.Is(want, game.ErrInfeasible) {
				t.Fatalf("grouped: %v; per machine: %v; want both to wrap ErrInfeasible", got, want)
			}
			if got.Error() != want.Error() {
				t.Fatalf("grouped: %q, per machine: %q", got, want)
			}
			if !strings.Contains(got.Error(), tc.want) {
				t.Fatalf("error %q does not say %q", got, tc.want)
			}
		})
	}
}
