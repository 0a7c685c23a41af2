package megascale

import (
	"fmt"
	"math"

	"nashlb/internal/game"
	"nashlb/internal/numeric"
)

// ClassProfile is a sparse strategy profile in CSR form: one row per class,
// with explicit entries only for the machines the class is allowed to touch.
// Row c's columns are cols[rowPtr[c]:rowPtr[c+1]] (machine ids, ascending)
// and vals holds the matching per-member fractions. The column structure is
// fixed at construction; solving mutates only vals.
type ClassProfile struct {
	machines int
	rowPtr   []int
	cols     []int32
	vals     []float64
}

// NewClassProfile returns the all-zero profile shaped for cs: every class
// gets entries for exactly the machines it may use.
func NewClassProfile(cs *ClassSystem) *ClassProfile {
	nnz := 0
	for c := range cs.Classes {
		nnz += cs.machineSpan(c)
	}
	p := &ClassProfile{
		machines: len(cs.Rates),
		rowPtr:   make([]int, len(cs.Classes)+1),
		cols:     make([]int32, 0, nnz),
		vals:     make([]float64, nnz),
	}
	for c, cl := range cs.Classes {
		if cl.Machines == nil {
			for j := 0; j < p.machines; j++ {
				p.cols = append(p.cols, int32(j))
			}
		} else {
			p.cols = append(p.cols, cl.Machines...)
		}
		p.rowPtr[c+1] = len(p.cols)
	}
	return p
}

// ProportionalClassProfile returns the NASH_P starting point: each class
// splits proportionally to the rates of its allowed machines. For
// unconstrained classes this is exactly game.ProportionalProfile's row.
func ProportionalClassProfile(cs *ClassSystem) *ClassProfile {
	p := NewClassProfile(cs)
	for c := range cs.Classes {
		cols, vals := p.Row(c)
		var total numeric.Accumulator
		for _, j := range cols {
			total.Add(cs.Rates[j])
		}
		tv := total.Value()
		for k, j := range cols {
			vals[k] = cs.Rates[j] / tv
		}
	}
	return p
}

// Rows returns the number of class rows.
func (p *ClassProfile) Rows() int { return len(p.rowPtr) - 1 }

// Machines returns the number of machines (the dense column dimension).
func (p *ClassProfile) Machines() int { return p.machines }

// Row returns class c's machine ids and per-member fractions as views into
// the profile; mutating vals mutates the profile.
func (p *ClassProfile) Row(c int) (cols []int32, vals []float64) {
	lo, hi := p.rowPtr[c], p.rowPtr[c+1]
	return p.cols[lo:hi], p.vals[lo:hi]
}

// NNZ returns the number of stored entries.
func (p *ClassProfile) NNZ() int { return len(p.vals) }

// MemoryBytes returns the size of the profile's backing arrays.
func (p *ClassProfile) MemoryBytes() int64 {
	return int64(len(p.rowPtr))*8 + int64(len(p.cols))*4 + int64(len(p.vals))*8
}

// Clone returns a deep copy of the profile.
func (p *ClassProfile) Clone() *ClassProfile {
	return &ClassProfile{
		machines: p.machines,
		rowPtr:   append([]int(nil), p.rowPtr...),
		cols:     append([]int32(nil), p.cols...),
		vals:     append([]float64(nil), p.vals...),
	}
}

// shapedFor reports whether p has the row and column structure
// NewClassProfile(cs) builds: one row per class holding exactly the
// machines the class may use.
func (p *ClassProfile) shapedFor(cs *ClassSystem) bool {
	if p.machines != len(cs.Rates) || p.Rows() != len(cs.Classes) {
		return false
	}
	for c, cl := range cs.Classes {
		cols, _ := p.Row(c)
		if len(cols) != cs.machineSpan(c) {
			return false
		}
		for k, j := range cols {
			if (cl.Machines == nil && j != int32(k)) || (cl.Machines != nil && j != cl.Machines[k]) {
				return false
			}
		}
	}
	return true
}

// Loads returns lambda_j = sum_c Count_c * Phi_c * s_cj for every machine,
// with compensated per-machine accumulation matching game.System.Loads.
func (p *ClassProfile) Loads(cs *ClassSystem) []float64 {
	loads := make([]float64, p.machines)
	comp := make([]float64, p.machines)
	for c := range cs.Classes {
		w := cs.Classes[c].Weight()
		cols, vals := p.Row(c)
		for k, j := range cols {
			addCompensated(loads, comp, int(j), w*vals[k])
		}
	}
	for j := range loads {
		loads[j] += comp[j]
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
	for c := range out {
		row := make(game.Strategy, p.machines)
		cols, vals := p.Row(c)
		for k, j := range cols {
			row[j] = vals[k]
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
// stability (lambda_j < mu_j), mirroring game.System.CheckProfile.
func (p *ClassProfile) CheckFeasible(cs *ClassSystem) error {
	if p.Rows() != len(cs.Classes) || p.machines != len(cs.Rates) {
		return fmt.Errorf("%w: profile shape %dx%d for %d classes on %d machines",
			game.ErrInfeasible, p.Rows(), p.machines, len(cs.Classes), len(cs.Rates))
	}
	for c := range cs.Classes {
		_, vals := p.Row(c)
		var acc numeric.Accumulator
		for k, f := range vals {
			if math.IsNaN(f) || f < -game.FeasibilityTol {
				return fmt.Errorf("%w: class %d has negative fraction s[%d]=%g", game.ErrInfeasible, c, k, f)
			}
			acc.Add(f)
		}
		if !numeric.EqualWithin(acc.Value(), 1, 1e-6) {
			return fmt.Errorf("%w: class %d fractions sum to %g, want 1", game.ErrInfeasible, c, acc.Value())
		}
	}
	loads := p.Loads(cs)
	for j, l := range loads {
		if l >= cs.Rates[j]+game.FeasibilityTol {
			return fmt.Errorf("%w: machine %d overloaded (lambda=%g >= mu=%g)", game.ErrInfeasible, j, l, cs.Rates[j])
		}
	}
	return nil
}
