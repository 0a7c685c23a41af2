package megascale

import (
	"slices"
	"testing"
)

// TestGroupMachines pins the partition into machine types: equal rates
// group, a class row that holds only part of a group splits it, unequal
// start fractions split it, and types are numbered by lowest machine.
func TestGroupMachines(t *testing.T) {
	cases := []struct {
		name    string
		rates   []float64
		classes []Class
		// start holds each class row's starting fractions; nil groups
		// without a start.
		start  [][]float64
		typeOf []int32
		size   []float64
	}{
		{
			name:    "equal rates group",
			rates:   []float64{10, 20, 10, 20, 50},
			classes: []Class{{Phi: 1, Count: 1}},
			typeOf:  []int32{0, 1, 0, 1, 2},
			size:    []float64{2, 2, 1},
		},
		{
			name:    "all distinct",
			rates:   []float64{30, 20, 10},
			classes: []Class{{Phi: 1, Count: 1}},
			typeOf:  []int32{0, 1, 2},
			size:    []float64{1, 1, 1},
		},
		{
			name:    "class sets split",
			rates:   []float64{10, 20, 10, 20, 10},
			classes: []Class{{Phi: 1, Count: 1}, {Phi: 1, Count: 2, Machines: []int32{0, 2, 3}}},
			typeOf:  []int32{0, 1, 0, 2, 3},
			size:    []float64{2, 1, 1, 1},
		},
		{
			name:    "start fractions split",
			rates:   []float64{10, 10, 10, 10},
			classes: []Class{{Phi: 1, Count: 1}, {Phi: 1, Count: 3, Machines: []int32{1, 2, 3}}},
			start:   [][]float64{{0.25, 0.25, 0.25, 0.25}, {0.5, 0.25, 0.25}},
			typeOf:  []int32{0, 1, 2, 2},
			size:    []float64{1, 1, 2},
		},
		{
			name:    "equal start fractions group",
			rates:   []float64{10, 10, 20},
			classes: []Class{{Phi: 1, Count: 1}},
			start:   [][]float64{{0.25, 0.25, 0.5}},
			typeOf:  []int32{0, 0, 1},
			size:    []float64{2, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs, err := NewClassSystem(tc.rates, tc.classes)
			if err != nil {
				t.Fatal(err)
			}
			var start *ClassProfile
			if tc.start != nil {
				if start, err = NewClassProfile(cs, tc.start); err != nil {
					t.Fatal(err)
				}
			}
			typeOf, size := groupMachines(cs, start)
			if !slices.Equal(typeOf, tc.typeOf) || !slices.Equal(size, tc.size) {
				t.Fatalf("types %v sizes %v, want %v %v", typeOf, size, tc.typeOf, tc.size)
			}
		})
	}
}
