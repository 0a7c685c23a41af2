// Package megascale scales the equilibrium computation from hundreds of
// users to millions by exploiting a structural fact of the load-balancing
// game: users with identical arrival rate and identical allowed-machine set
// are interchangeable, so they share one water-filling best response and the
// game collapses to a weighted game over user *classes*. A class of one
// million users costs exactly as much to solve as a single user.
//
// The same fact holds for machines: machines with identical rate that the
// same classes may use are interchangeable, so the solver collapses them
// into machine *types* and a type of identical machines costs exactly as
// much as one machine. The speed-up needs repeated machine rates, as in the
// paper's Table-1 system of four speeds; with all-distinct rates every type
// is one machine and the cost is per machine.
//
// The package provides three pieces:
//
//   - user classes (Class, ClassSystem): an aggregated description of the
//     population with exact round-trip expansion back to per-user strategies;
//   - a strategy profile (ClassProfile) stored per machine type: one
//     fraction per (class, type) the class may use, plus the machine → type
//     map, from which per-machine rows, loads and expansions are read;
//   - an incremental best-reply solver (Solve, SolveFrom) over machine types,
//     whose per-class type ordering and spare-capacity caches are repaired,
//     not rebuilt, between rounds, driven by a dirty-set of types whose load
//     changed; it returns its per-type state as the profile, so no step of a
//     solve costs classes × machines.
//
// SolveSystem adapts a dense per-user game.System through the class engine
// and back, and is a drop-in replacement for core.Solve.
package megascale

import (
	"errors"
	"fmt"
	"math"

	"nashlb/internal/game"
	"nashlb/internal/numeric"
)

// Class is a group of Count indistinguishable users, each generating jobs at
// Poisson rate Phi and restricted to the same set of machines. Within a
// class every member plays the same strategy at equilibrium (the members are
// interchangeable), so the class is solved once regardless of Count.
type Class struct {
	// Phi is the per-member job arrival rate (jobs/second), phi_i > 0.
	Phi float64
	// Count is the number of members, at least 1.
	Count int
	// Machines restricts the class to a subset of machine indices, sorted
	// strictly increasing. nil means the class may use every machine.
	Machines []int32
}

// Weight returns the class's aggregate arrival rate Count * Phi.
func (c Class) Weight() float64 { return float64(c.Count) * c.Phi }

// ClassSystem is the class-aggregated form of game.System: n machines shared
// by a population described as user classes instead of individual users.
type ClassSystem struct {
	// Rates holds mu_j > 0 for each machine.
	Rates []float64
	// Classes describes the user population.
	Classes []Class
}

// NewClassSystem validates and returns a ClassSystem. The slices are copied.
func NewClassSystem(rates []float64, classes []Class) (*ClassSystem, error) {
	cs := &ClassSystem{
		Rates:   append([]float64(nil), rates...),
		Classes: make([]Class, len(classes)),
	}
	for c, cl := range classes {
		if cl.Machines != nil {
			// Preserve non-nil emptiness: an empty list means "no machines
			// allowed" (rejected by Validate), not "all machines".
			m := make([]int32, len(cl.Machines))
			copy(m, cl.Machines)
			cl.Machines = m
		}
		cs.Classes[c] = cl
	}
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	return cs, nil
}

// Validate checks the structural constraints: positive machine rates,
// positive per-member arrivals, counts >= 1, sorted in-range machine
// constraints, aggregate stability, and per-class reachable capacity
// exceeding the class's own weight (a cheap necessary feasibility check;
// contention between classes surfaces as a solver error instead).
func (cs *ClassSystem) Validate() error {
	n := len(cs.Rates)
	if n == 0 {
		return errors.New("megascale: system has no machines")
	}
	if len(cs.Classes) == 0 {
		return errors.New("megascale: system has no user classes")
	}
	for j, mu := range cs.Rates {
		if !(mu > 0) || math.IsInf(mu, 0) {
			return fmt.Errorf("megascale: machine %d has invalid rate %g", j, mu)
		}
	}
	for c, cl := range cs.Classes {
		if cl.Count < 1 {
			return fmt.Errorf("megascale: class %d has count %d, want >= 1", c, cl.Count)
		}
		if !(cl.Phi > 0) || math.IsInf(cl.Phi, 0) {
			return fmt.Errorf("megascale: class %d has invalid arrival rate %g", c, cl.Phi)
		}
		if cl.Machines != nil {
			if len(cl.Machines) == 0 {
				return fmt.Errorf("megascale: class %d allows no machines", c)
			}
			var cap64 numeric.Accumulator
			prev := int32(-1)
			for _, j := range cl.Machines {
				if j <= prev {
					return fmt.Errorf("megascale: class %d machine list not sorted strictly increasing at %d", c, j)
				}
				if int(j) >= n {
					return fmt.Errorf("megascale: class %d references machine %d of %d", c, j, n)
				}
				prev = j
				cap64.Add(cs.Rates[j])
			}
			if cl.Weight() >= cap64.Value() {
				return fmt.Errorf("megascale: class %d weight %g >= reachable capacity %g", c, cl.Weight(), cap64.Value())
			}
		}
	}
	if cs.TotalArrival() >= cs.TotalCapacity() {
		return fmt.Errorf("%w: Phi=%g, sum(mu)=%g", game.ErrOverloaded, cs.TotalArrival(), cs.TotalCapacity())
	}
	return nil
}

// MachineCount returns n, the number of machines.
func (cs *ClassSystem) MachineCount() int { return len(cs.Rates) }

// ClassCount returns the number of user classes.
func (cs *ClassSystem) ClassCount() int { return len(cs.Classes) }

// Users returns the total number of individual users across all classes.
func (cs *ClassSystem) Users() int64 {
	var total int64
	for _, cl := range cs.Classes {
		total += int64(cl.Count)
	}
	return total
}

// TotalArrival returns Phi = sum_c Count_c * Phi_c.
func (cs *ClassSystem) TotalArrival() float64 {
	var acc numeric.Accumulator
	for _, cl := range cs.Classes {
		acc.Add(cl.Weight())
	}
	return acc.Value()
}

// TotalCapacity returns sum_j mu_j.
func (cs *ClassSystem) TotalCapacity() float64 { return numeric.Sum(cs.Rates) }

// Utilization returns rho = Phi / sum(mu).
func (cs *ClassSystem) Utilization() float64 { return cs.TotalArrival() / cs.TotalCapacity() }

// machineSpan returns the number of machines class c touches.
func (cs *ClassSystem) machineSpan(c int) int {
	if cs.Classes[c].Machines == nil {
		return len(cs.Rates)
	}
	return len(cs.Classes[c].Machines)
}

// FromSystem aggregates a dense per-user system into classes of users with
// identical arrival rate (dense systems carry no machine constraints, so the
// arrival rate is the whole identity). Classes appear in order of first
// occurrence; the returned slice maps each user index to its class index, so
// the aggregation round-trips exactly through ClassProfile.ExpandUsers.
func FromSystem(sys *game.System) (*ClassSystem, []int) {
	cs := &ClassSystem{Rates: append([]float64(nil), sys.Rates...)}
	index := make(map[uint64]int, len(sys.Arrivals))
	userToClass := make([]int, len(sys.Arrivals))
	for i, phi := range sys.Arrivals {
		key := math.Float64bits(phi)
		ci, ok := index[key]
		if !ok {
			ci = len(cs.Classes)
			index[key] = ci
			cs.Classes = append(cs.Classes, Class{Phi: phi})
		}
		cs.Classes[ci].Count++
		userToClass[i] = ci
	}
	return cs, userToClass
}

// ExpandSystem materializes the dense per-user system: class members become
// consecutive users in class order. It errors when any class carries a
// machine constraint, which the dense model cannot express.
func (cs *ClassSystem) ExpandSystem() (*game.System, error) {
	arrivals := make([]float64, 0, cs.Users())
	for c, cl := range cs.Classes {
		if cl.Machines != nil {
			return nil, fmt.Errorf("megascale: class %d has a machine constraint, not expressible densely", c)
		}
		for i := 0; i < cl.Count; i++ {
			arrivals = append(arrivals, cl.Phi)
		}
	}
	return game.NewSystem(cs.Rates, arrivals)
}
