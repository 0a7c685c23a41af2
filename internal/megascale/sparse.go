package megascale

import (
	"fmt"
	"math"
	"slices"

	"nashlb/internal/game"
	"nashlb/internal/numeric"
)

// ClassProfile is a strategy profile stored per machine type: one row per
// class and one fraction per (class, type) the class may use. A type is a
// set of machines every row treats alike: each member of a class sends the
// row's fraction to every machine of each type in the row. typeOf maps
// machines to types, numbered in order of their lowest machine, and size
// counts each type's machines. A per-machine profile is the case where
// every type is one machine; Solve keeps the types it solved over, so its
// profiles cost classes × types, not classes × machines.
//
// Row c's types are cols[rowPtr[c]:rowPtr[c+1]] (ascending) and vals holds
// the matching per-member fractions. A profile is not modified once built.
type ClassProfile struct {
	typeOf []int32
	size   []float64
	// all lists every machine when some type holds more than one; see
	// allMachines.
	all    []int32
	rowPtr []int
	cols   []int32
	vals   []float64
}

// newProfile returns an empty profile over the given machine types, with
// room for classes rows of nnz entries in all.
func newProfile(typeOf []int32, size []float64, classes, nnz int) *ClassProfile {
	p := &ClassProfile{
		typeOf: typeOf,
		size:   size,
		rowPtr: make([]int, 1, classes+1),
		cols:   make([]int32, 0, nnz),
		vals:   make([]float64, 0, nnz),
	}
	if len(size) < len(typeOf) {
		p.all = make([]int32, len(typeOf))
		for j := range p.all {
			p.all[j] = int32(j)
		}
	}
	return p
}

// addRow appends a class row over the given types (ascending).
func (p *ClassProfile) addRow(types []int32, fracs []float64) {
	p.cols = append(p.cols, types...)
	p.vals = append(p.vals, fracs...)
	p.rowPtr = append(p.rowPtr, len(p.cols))
}

// NewClassProfile returns the per-machine profile whose row c holds rows[c]:
// class c's per-member fractions over the machines it may use, in
// ascending machine order (the order Row returns). The fractions are copied
// and not checked; CheckFeasible checks them.
func NewClassProfile(cs *ClassSystem, rows [][]float64) (*ClassProfile, error) {
	if len(rows) != len(cs.Classes) {
		return nil, fmt.Errorf("megascale: %d profile rows for %d classes", len(rows), len(cs.Classes))
	}
	nnz := 0
	for c, row := range rows {
		if len(row) != cs.machineSpan(c) {
			return nil, fmt.Errorf("megascale: class %d row has %d fractions for %d machines", c, len(row), cs.machineSpan(c))
		}
		nnz += len(row)
	}
	n := len(cs.Rates)
	typeOf := make([]int32, n)
	size := make([]float64, n)
	for j := range typeOf {
		typeOf[j], size[j] = int32(j), 1
	}
	p := newProfile(typeOf, size, len(rows), nnz)
	for c, row := range rows {
		cols := cs.Classes[c].Machines
		if cols == nil {
			cols = typeOf
		}
		p.addRow(cols, row)
	}
	return p, nil
}

// ProportionalClassProfile returns the NASH_P starting point: each class
// splits proportionally to the rates of its allowed machines. For
// unconstrained classes this is exactly game.ProportionalProfile's row.
func ProportionalClassProfile(cs *ClassSystem) *ClassProfile {
	rows := make([][]float64, len(cs.Classes))
	for c, cl := range cs.Classes {
		var total numeric.Accumulator
		row := make([]float64, cs.machineSpan(c))
		for k := range row {
			total.Add(cs.Rates[machineAt(cl, k)])
		}
		tv := total.Value()
		for k := range row {
			row[k] = cs.Rates[machineAt(cl, k)] / tv
		}
		rows[c] = row
	}
	// The rows are shaped for cs, so NewClassProfile cannot fail.
	p, _ := NewClassProfile(cs, rows)
	return p
}

// machineAt returns the k-th machine class cl may use.
func machineAt(cl Class, k int) int {
	if cl.Machines == nil {
		return k
	}
	return int(cl.Machines[k])
}

// Rows returns the number of class rows.
func (p *ClassProfile) Rows() int { return len(p.rowPtr) - 1 }

// Machines returns the number of machines (the dense column dimension).
func (p *ClassProfile) Machines() int { return len(p.typeOf) }

// typeRow returns class c's types and their per-member fractions.
func (p *ClassProfile) typeRow(c int) (types []int32, fracs []float64) {
	lo, hi := p.rowPtr[c], p.rowPtr[c+1]
	return p.cols[lo:hi], p.vals[lo:hi]
}

// Row returns class c's machine ids, ascending, and the per-member fraction
// each receives. Both slices are read-only. When every type is one machine
// they are views into the profile; otherwise the fractions, and the
// columns of a row that lacks some type, are built from the type row on
// each call.
func (p *ClassProfile) Row(c int) (cols []int32, vals []float64) {
	types, fracs := p.typeRow(c)
	if len(p.size) == len(p.typeOf) {
		// Every type is one machine, numbered as the machine.
		return types, fracs
	}
	if len(types) == len(p.size) {
		// The row holds every type, type t at position t.
		vals = make([]float64, len(p.typeOf))
		for j, t := range p.typeOf {
			vals[j] = fracs[t]
		}
		return p.allMachines(), vals
	}
	var n float64
	for _, t := range types {
		n += p.size[t]
	}
	cols, vals = make([]int32, 0, int(n)), make([]float64, 0, int(n))
	for j, t := range p.typeOf {
		if k, in := slices.BinarySearch(types, t); in {
			cols = append(cols, int32(j))
			vals = append(vals, fracs[k])
		}
	}
	return cols, vals
}

// allMachines lists every machine, ascending: the columns of a row over
// every type.
func (p *ClassProfile) allMachines() []int32 {
	if p.all == nil {
		return p.typeOf // every type is one machine, numbered as the machine
	}
	return p.all
}

// rowPos returns where type t's lowest machine sits in Row's machine order
// for a row over types.
func (p *ClassProfile) rowPos(types []int32, t int32) int {
	pos := 0
	for _, u := range p.typeOf {
		if u == t {
			break
		}
		if _, in := slices.BinarySearch(types, u); in {
			pos++
		}
	}
	return pos
}

// NNZ returns the number of stored fractions, one per (class, type) entry.
func (p *ClassProfile) NNZ() int { return len(p.vals) }

// MemoryBytes returns the size of the profile's backing arrays: the rows
// over types plus the machine → type map.
func (p *ClassProfile) MemoryBytes() int64 {
	return int64(len(p.rowPtr))*8 + int64(len(p.cols))*4 + int64(len(p.vals))*8 +
		int64(len(p.typeOf)+len(p.all))*4 + int64(len(p.size))*8
}

// Clone returns a deep copy of the profile, types included.
func (p *ClassProfile) Clone() *ClassProfile {
	return &ClassProfile{
		typeOf: slices.Clone(p.typeOf),
		size:   slices.Clone(p.size),
		all:    slices.Clone(p.all),
		rowPtr: slices.Clone(p.rowPtr),
		cols:   slices.Clone(p.cols),
		vals:   slices.Clone(p.vals),
	}
}

// shapedFor reports whether p has one row per class of cs holding exactly
// the machines the class may use.
func (p *ClassProfile) shapedFor(cs *ClassSystem) bool {
	if p.Machines() != len(cs.Rates) || p.Rows() != len(cs.Classes) {
		return false
	}
	for c, cl := range cs.Classes {
		types, _ := p.typeRow(c)
		if cl.Machines == nil {
			if len(types) != len(p.size) {
				return false
			}
			continue
		}
		var n float64
		for _, t := range types {
			n += p.size[t]
		}
		if int(n) != len(cl.Machines) {
			return false
		}
		for _, j := range cl.Machines {
			if _, in := slices.BinarySearch(types, p.typeOf[j]); !in {
				return false
			}
		}
	}
	return true
}

// Loads returns lambda_j = sum_c Count_c * Phi_c * s_cj for every machine,
// with compensated per-machine accumulation matching game.System.Loads.
func (p *ClassProfile) Loads(cs *ClassSystem) []float64 {
	loads := p.typeLoads(cs)
	out := make([]float64, len(p.typeOf))
	for j, t := range p.typeOf {
		out[j] = loads[t]
	}
	return out
}

// typeLoads returns the load on each machine of every type. Every machine
// of a type receives the same addends in the same class order, so this is
// Loads' per-machine sum, bit for bit.
func (p *ClassProfile) typeLoads(cs *ClassSystem) []float64 {
	loads := make([]float64, len(p.size))
	comp := make([]float64, len(p.size))
	for c := range cs.Classes {
		w := cs.Classes[c].Weight()
		types, fracs := p.typeRow(c)
		for k, t := range types {
			addCompensated(loads, comp, int(t), w*fracs[k])
		}
	}
	for t := range loads {
		loads[t] += comp[t]
	}
	return loads
}

// addCompensated folds x into sum[j] with Neumaier compensation in comp[j].
func addCompensated(sum, comp []float64, j int, x float64) {
	t := sum[j] + x
	if math.Abs(sum[j]) >= math.Abs(x) {
		comp[j] += (sum[j] - t) + x
	} else {
		comp[j] += (x - t) + sum[j]
	}
	sum[j] = t
}

// Expand materializes one dense strategy row per class.
func (p *ClassProfile) Expand(cs *ClassSystem) game.Profile {
	out := make(game.Profile, p.Rows())
	at := make([]float64, len(p.size))
	for c := range out {
		clear(at)
		types, fracs := p.typeRow(c)
		for k, t := range types {
			at[t] = fracs[k]
		}
		row := make(game.Strategy, len(p.typeOf))
		for j, t := range p.typeOf {
			row[j] = at[t]
		}
		out[c] = row
	}
	return out
}

// ExpandUsers materializes the dense per-user profile: user i receives a
// copy of its class's row, as mapped by userToClass (the inverse of
// FromSystem's aggregation). Members of the same class share identical
// strategies, so the expansion is exact, not approximate.
func (p *ClassProfile) ExpandUsers(cs *ClassSystem, userToClass []int) (game.Profile, error) {
	rows := p.Expand(cs)
	out := make(game.Profile, len(userToClass))
	for i, c := range userToClass {
		if c < 0 || c >= len(rows) {
			return nil, fmt.Errorf("megascale: user %d maps to class %d of %d", i, c, len(rows))
		}
		out[i] = rows[c].Clone()
	}
	return out, nil
}

// CheckFeasible verifies per-class positivity and conservation plus machine
// stability (lambda_j < mu_j), mirroring game.System.CheckProfile. It works
// per type and reports the same class and machine the per-machine check of
// the same profile would.
func (p *ClassProfile) CheckFeasible(cs *ClassSystem) error {
	if p.Rows() != len(cs.Classes) || p.Machines() != len(cs.Rates) {
		return fmt.Errorf("%w: profile shape %dx%d for %d classes on %d machines",
			game.ErrInfeasible, p.Rows(), p.Machines(), len(cs.Classes), len(cs.Rates))
	}
	for c := range cs.Classes {
		types, fracs := p.typeRow(c)
		var acc numeric.Accumulator
		for k, f := range fracs {
			if math.IsNaN(f) || f < -game.FeasibilityTol {
				// Types are numbered by lowest machine, so the row's first
				// bad type holds its first bad machine.
				return fmt.Errorf("%w: class %d has negative fraction s[%d]=%g",
					game.ErrInfeasible, c, p.rowPos(types, types[k]), f)
			}
			acc.Add(p.size[types[k]] * f)
		}
		if !numeric.EqualWithin(acc.Value(), 1, 1e-6) {
			return fmt.Errorf("%w: class %d fractions sum to %g, want 1", game.ErrInfeasible, c, acc.Value())
		}
	}
	loads := p.typeLoads(cs)
	for j, t := range p.typeOf {
		if l := loads[t]; l >= cs.Rates[j]+game.FeasibilityTol {
			return fmt.Errorf("%w: machine %d overloaded (lambda=%g >= mu=%g)", game.ErrInfeasible, j, l, cs.Rates[j])
		}
	}
	return nil
}
