package megascale

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"nashlb/internal/core"
)

// digest folds values into an FNV-64a hash, eight little-endian bytes each,
// in chunks.
type digest struct {
	h   hash.Hash64
	buf []byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u(x uint64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, x)
	if len(d.buf) >= 1<<16 {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

func (d *digest) f(xs ...float64) {
	for _, x := range xs {
		d.u(math.Float64bits(x))
	}
}

func (d *digest) i(xs ...int64) {
	for _, x := range xs {
		d.u(uint64(x))
	}
}

func (d *digest) sum() string {
	d.h.Write(d.buf)
	return fmt.Sprintf("%016x", d.h.Sum64())
}

// outputDigests digests everything a solve hands out, one digest per part.
// small adds the per-user expansion and the equilibrium certificate, which
// are out of reach at 10,000 machines.
func outputDigests(t *testing.T, cs *ClassSystem, res *Result, small bool) map[string]string {
	t.Helper()
	out := map[string]string{}
	d := newDigest()
	conv := int64(0)
	if res.Converged {
		conv = 1
	}
	d.i(int64(res.Rounds), res.Solves, res.Skips, conv)
	d.f(res.Norms...)
	d.f(res.ClassTimes...)
	d.f(res.OverallTime)
	out["result"] = d.sum()

	d = newDigest()
	p := res.Profile
	for c := 0; c < p.Rows(); c++ {
		cols, vals := p.Row(c)
		for _, j := range cols {
			d.i(int64(j))
		}
		d.f(vals...)
	}
	out["row"] = d.sum()

	d = newDigest()
	for _, row := range p.Expand(cs) {
		d.f(row...)
	}
	out["expand"] = d.sum()

	d = newDigest()
	d.f(p.Loads(cs)...)
	out["loads"] = d.sum()

	if !small {
		return out
	}
	var userToClass []int
	for c, cl := range cs.Classes {
		for k := 0; k < cl.Count; k++ {
			userToClass = append(userToClass, c)
		}
	}
	users, err := p.ExpandUsers(cs, userToClass)
	if err != nil {
		t.Fatal(err)
	}
	d = newDigest()
	for _, row := range users {
		d.f(row...)
	}
	out["users"] = d.sum()

	ok, dev, err := VerifyEquilibrium(cs, p, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("not an equilibrium: deviation %g", dev)
	}
	d = newDigest()
	d.f(dev)
	out["verify"] = d.sum()
	return out
}

// TestSolveOutputDigests pins every per-machine value the package hands out
// bit for bit on three shapes: EXT11's 10,000 machines of four speeds
// shared by 200 classes, a constrained shape whose equal-rate machines sit
// in different class rows, and warm starts. The wanted digests were
// recorded by this test against the implementation that stored one
// fraction per (class, machine); how a profile is stored must not change
// any of them.
func TestSolveOutputDigests(t *testing.T) {
	mega := benchClassSystem(10_000, 200, 1_000_000, 0.7)
	megaEps := 1e-6 * float64(mega.Users())

	constrained, err := NewClassSystem([]float64{20, 20, 50, 10, 20, 50, 10, 20}, []Class{
		{Phi: 0.5, Count: 30, Machines: []int32{0, 2, 5}},
		{Phi: 1, Count: 10, Machines: []int32{1, 2, 3, 4, 7}},
		{Phi: 10, Count: 5},
		{Phi: 2, Count: 1, Machines: []int32{3, 6}},
	})
	if err != nil {
		t.Fatal(err)
	}

	warmRates := []float64{10, 20, 20, 50, 10, 20, 50}
	warm, err := NewClassSystem(warmRates, []Class{
		{Phi: 1.5, Count: 4},
		{Phi: 3, Count: 2},
		{Phi: 0.5, Count: 10, Machines: []int32{1, 2, 3, 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Equal-rate machines start apart: 1, 2 and 5 (rate 20) and 0 and 4
	// (rate 10) hold different fractions in some row.
	unequal, err := NewClassProfile(warm, [][]float64{
		{0.05, 0.15, 0.1, 0.25, 0.1, 0.1, 0.25},
		{0.1, 0.1, 0.2, 0.2, 0.1, 0.1, 0.2},
		{0.3, 0.2, 0.3, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}

	prevClasses := []Class{
		{Phi: 0.05, Count: 1000},
		{Phi: 0.125, Count: 400},
		{Phi: 0.7, Count: 50},
		{Phi: 2.5, Count: 20},
		{Phi: 0.01, Count: 8000, Machines: []int32{0, 1, 4, 5, 6}},
	}
	prevRates := []float64{10, 20, 50, 100, 10, 20, 50, 100}
	prev, err := NewClassSystem(prevRates, prevClasses)
	if err != nil {
		t.Fatal(err)
	}
	prevClasses[1].Phi *= 1.001
	prev2, err := NewClassSystem(prevRates, prevClasses)
	if err != nil {
		t.Fatal(err)
	}

	megaClasses := append([]Class(nil), mega.Classes...)
	megaClasses[7].Phi *= 1.001
	mega2, err := NewClassSystem(mega.Rates, megaClasses)
	if err != nil {
		t.Fatal(err)
	}

	type run struct {
		name  string
		cs    *ClassSystem
		small bool
		solve func() (*Result, error)
	}
	runs := []run{
		{"megasolve/NASH_0", mega, false, func() (*Result, error) {
			return Solve(mega, Options{Init: core.InitZero, Epsilon: megaEps})
		}},
		{"megasolve/NASH_P", mega, false, func() (*Result, error) {
			return Solve(mega, Options{Init: core.InitProportional, Epsilon: megaEps})
		}},
		{"megasolve/warm-previous", mega2, false, func() (*Result, error) {
			cold, err := Solve(mega, Options{Init: core.InitProportional, Epsilon: megaEps})
			if err != nil {
				return nil, err
			}
			return SolveFrom(mega2, cold.Profile, Options{Epsilon: megaEps})
		}},
		{"constrained/NASH_0", constrained, true, func() (*Result, error) {
			return Solve(constrained, Options{Init: core.InitZero, Epsilon: 1e-13})
		}},
		{"constrained/NASH_P", constrained, true, func() (*Result, error) {
			return Solve(constrained, Options{Init: core.InitProportional, Epsilon: 1e-13})
		}},
		{"warm/unequal-start", warm, true, func() (*Result, error) {
			return SolveFrom(warm, unequal, Options{Epsilon: 1e-12})
		}},
		{"warm/previous", prev2, true, func() (*Result, error) {
			cold, err := Solve(prev, Options{Init: core.InitProportional})
			if err != nil {
				return nil, err
			}
			return SolveFrom(prev2, cold.Profile, Options{})
		}},
	}
	want := map[string]string{
		"constrained/NASH_0 expand":      "feb2ac176cea8791",
		"constrained/NASH_0 loads":       "fb567f4f6d33c893",
		"constrained/NASH_0 result":      "e08c661cd4e27e03",
		"constrained/NASH_0 row":         "e6eee9bf8676026c",
		"constrained/NASH_0 users":       "82dd7a5ab24b8f63",
		"constrained/NASH_0 verify":      "a934ec322876f741",
		"constrained/NASH_P expand":      "2029803c35d6e6d0",
		"constrained/NASH_P loads":       "a3f5ffc2070f05d5",
		"constrained/NASH_P result":      "eb420547dbce1550",
		"constrained/NASH_P row":         "315fbbcb828ce5c5",
		"constrained/NASH_P users":       "369e033cf42ccd8a",
		"constrained/NASH_P verify":      "a8c7f832281a39c5",
		"megasolve/NASH_0 expand":        "df14aed09aed53cd",
		"megasolve/NASH_0 loads":         "0a8399ced2cb4dd5",
		"megasolve/NASH_0 result":        "5503109180480230",
		"megasolve/NASH_0 row":           "89deebefb4669ecd",
		"megasolve/NASH_P expand":        "c99384b7633acf2d",
		"megasolve/NASH_P loads":         "77d095d2e8017e95",
		"megasolve/NASH_P result":        "0624e04ea46b7576",
		"megasolve/NASH_P row":           "f3c07645a489e72d",
		"megasolve/warm-previous expand": "4b51de791e00ed5d",
		"megasolve/warm-previous loads":  "ed92cc09df4ffec5",
		"megasolve/warm-previous result": "d7603dbe82004b3f",
		"megasolve/warm-previous row":    "c2364d66de4098dd",
		"warm/previous expand":           "d3669bc2dabee77d",
		"warm/previous loads":            "f5c25de8d918156d",
		"warm/previous result":           "e0fe61c12a38e93b",
		"warm/previous row":              "9c6c97cfc4d7e717",
		"warm/previous users":            "aaaed0d0d03b816d",
		"warm/previous verify":           "a8c7f832281a39c5",
		"warm/unequal-start expand":      "2769ab6ff130a002",
		"warm/unequal-start loads":       "cac88e81338f9bdb",
		"warm/unequal-start result":      "69765c008d986cda",
		"warm/unequal-start row":         "1ab5b0610eb085c3",
		"warm/unequal-start users":       "e04af40d9b904f3d",
		"warm/unequal-start verify":      "a8c7f832281a39c5",
	}
	parts := 0
	for _, r := range runs {
		res, err := r.solve()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		for part, got := range outputDigests(t, r.cs, res, r.small) {
			key := r.name + " " + part
			parts++
			if want[key] != got {
				t.Errorf("%s: digest %s, want %s", key, got, want[key])
			}
		}
	}
	if parts != len(want) {
		t.Errorf("digested %d parts, want %d", parts, len(want))
	}
}
