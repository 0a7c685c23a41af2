// Package game defines the noncooperative load-balancing game of Grosu &
// Chronopoulos (IPDPS/APDCM 2002), Section 2: a distributed system of n
// heterogeneous M/M/1 computers shared by m selfish users.
//
// Computer j has average processing rate mu_j. User i generates jobs at
// Poisson rate phi_i and chooses a load-balancing strategy
// s_i = (s_i1, ..., s_in), the fractions of its jobs dispatched to each
// computer. With lambda_j = sum_i s_ij*phi_i the load on computer j, the
// expected response time at computer j is F_j(s) = 1/(mu_j - lambda_j)
// (equation (1) of the paper) and the expected response time of user i is
// D_i(s) = sum_j s_ij * F_j(s) (equation (2)).
//
// A feasible strategy satisfies positivity (s_ij >= 0), conservation
// (sum_j s_ij = 1) and stability (lambda_j < mu_j). A profile s is a Nash
// equilibrium when no user can lower its own D_i by a unilateral feasible
// deviation (Definition 2.1).
package game

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"nashlb/internal/numeric"
)

// FeasibilityTol is the tolerance used by feasibility checks for the
// conservation and positivity constraints.
const FeasibilityTol = 1e-9

// ErrInfeasible reports a strategy or profile violating the game's
// feasibility constraints.
var ErrInfeasible = errors.New("game: infeasible strategy profile")

// ErrOverloaded reports a system whose total arrival rate is not strictly
// below its aggregate processing rate, so no feasible profile exists.
var ErrOverloaded = errors.New("game: total arrival rate >= aggregate processing rate")

// System describes the distributed system: the computers' processing rates
// and the users' job arrival rates. It is immutable by convention; all
// solver functions treat it as read-only.
type System struct {
	// Rates holds mu_j > 0, the average processing rate of each computer
	// (jobs/second).
	Rates []float64
	// Arrivals holds phi_i > 0, the average job generation rate of each
	// user (jobs/second).
	Arrivals []float64
}

// NewSystem validates and returns a System. The slices are copied.
func NewSystem(rates, arrivals []float64) (*System, error) {
	s := &System{
		Rates:    append([]float64(nil), rates...),
		Arrivals: append([]float64(nil), arrivals...),
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate checks the structural constraints of the model: positive rates,
// positive arrivals, and aggregate stability sum(phi) < sum(mu).
func (s *System) Validate() error {
	if len(s.Rates) == 0 {
		return errors.New("game: system has no computers")
	}
	if len(s.Arrivals) == 0 {
		return errors.New("game: system has no users")
	}
	for j, mu := range s.Rates {
		if !(mu > 0) || math.IsInf(mu, 0) {
			return fmt.Errorf("game: computer %d has invalid rate %g", j, mu)
		}
	}
	for i, phi := range s.Arrivals {
		if !(phi > 0) || math.IsInf(phi, 0) {
			return fmt.Errorf("game: user %d has invalid arrival rate %g", i, phi)
		}
	}
	if s.TotalArrival() >= s.TotalCapacity() {
		return fmt.Errorf("%w: Phi=%g, sum(mu)=%g", ErrOverloaded, s.TotalArrival(), s.TotalCapacity())
	}
	return nil
}

// Computers returns n, the number of computers.
func (s *System) Computers() int { return len(s.Rates) }

// Users returns m, the number of users.
func (s *System) Users() int { return len(s.Arrivals) }

// TotalCapacity returns sum_j mu_j.
func (s *System) TotalCapacity() float64 { return numeric.Sum(s.Rates) }

// TotalArrival returns Phi = sum_i phi_i.
func (s *System) TotalArrival() float64 { return numeric.Sum(s.Arrivals) }

// Utilization returns the system utilization rho = Phi / sum(mu), the
// x-axis of the paper's Figure 4.
func (s *System) Utilization() float64 { return s.TotalArrival() / s.TotalCapacity() }

// SpeedSkewness returns max(mu)/min(mu), the heterogeneity measure used in
// the paper's Figure 6 (after Tang & Chanson).
func (s *System) SpeedSkewness() float64 {
	lo, hi := s.Rates[0], s.Rates[0]
	for _, mu := range s.Rates[1:] {
		if mu < lo {
			lo = mu
		}
		if mu > hi {
			hi = mu
		}
	}
	return hi / lo
}

// Clone returns a deep copy of the system.
func (s *System) Clone() *System {
	return &System{
		Rates:    append([]float64(nil), s.Rates...),
		Arrivals: append([]float64(nil), s.Arrivals...),
	}
}

// Strategy is one user's load-balancing strategy: Strategy[j] is the
// fraction of the user's jobs dispatched to computer j.
type Strategy []float64

// Clone returns a copy of the strategy.
func (st Strategy) Clone() Strategy { return append(Strategy(nil), st...) }

// Profile is a full strategy profile: Profile[i] is user i's strategy.
type Profile []Strategy

// NewProfile returns an m-by-n zero profile.
func NewProfile(m, n int) Profile {
	p := make(Profile, m)
	for i := range p {
		p[i] = make(Strategy, n)
	}
	return p
}

// Clone returns a deep copy of the profile.
func (p Profile) Clone() Profile {
	q := make(Profile, len(p))
	for i := range p {
		q[i] = p[i].Clone()
	}
	return q
}

// Equal reports whether two profiles are bitwise-identical: same shape and
// same float64 values in every cell (NaNs compare unequal, as in ==). The
// serving layer uses it to skip re-resolving a routing table when a control
// plane re-pushes an unchanged equilibrium.
func (p Profile) Equal(q Profile) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if len(p[i]) != len(q[i]) {
			return false
		}
		for j := range p[i] {
			if p[i][j] != q[i][j] {
				return false
			}
		}
	}
	return true
}

// DistinctRows groups the rows of p by bitwise equality (math.Float64bits,
// so 0 and -0 differ): rows holds each distinct row once, numbered by the
// first user that plays it, and rowOf[i] is the index in rows of p[i]. The
// returned rows alias p's. At a Nash equilibrium users with equal arrival
// rates play equal strategies, so a solved profile has only as many
// distinct rows as arrival classes; the fleet wire, the durable snapshot
// and the gateway's route table check and store each distinct row once.
func DistinctRows(p Profile) (rows []Strategy, rowOf []int32) {
	rowOf = make([]int32, len(p))
	index := make(map[string]int32)
	var key []byte
	for i, st := range p {
		key = key[:0]
		for _, f := range st {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(f))
		}
		r, ok := index[string(key)]
		if !ok {
			r = int32(len(rows))
			index[string(key)] = r
			rows = append(rows, st)
		}
		rowOf[i] = r
	}
	return rows, rowOf
}

// ProportionalProfile returns the profile of the paper's PS scheme (and the
// NASH_P initialization): every user sets s_ij = mu_j / sum_k mu_k.
func ProportionalProfile(s *System) Profile {
	total := s.TotalCapacity()
	p := NewProfile(s.Users(), s.Computers())
	for i := range p {
		for j, mu := range s.Rates {
			p[i][j] = mu / total
		}
	}
	return p
}

// Loads returns lambda_j = sum_i s_ij * phi_i for every computer.
func (s *System) Loads(p Profile) []float64 {
	loads := make([]float64, s.Computers())
	for j := range loads {
		var acc numeric.Accumulator
		for i := range p {
			acc.Add(p[i][j] * s.Arrivals[i])
		}
		loads[j] = acc.Value()
	}
	return loads
}

// AvailableRates returns the processing rates of the computers as seen by
// user i: a_j = mu_j - sum_{k != i} s_kj * phi_k. This is the paper's
// mu_j^i, the quantity each user estimates before running OPTIMAL.
func (s *System) AvailableRates(p Profile, i int) []float64 {
	avail := make([]float64, s.Computers())
	for j := range avail {
		var acc numeric.Accumulator
		acc.Add(s.Rates[j])
		for k := range p {
			if k == i {
				continue
			}
			acc.Add(-p[k][j] * s.Arrivals[k])
		}
		avail[j] = acc.Value()
	}
	return avail
}

// ComputerResponseTimes returns F_j(s) = 1/(mu_j - lambda_j) for every
// computer; +Inf where the computer is saturated.
func (s *System) ComputerResponseTimes(p Profile) []float64 {
	loads := s.Loads(p)
	out := make([]float64, len(loads))
	for j := range out {
		rem := s.Rates[j] - loads[j]
		if rem <= 0 {
			out[j] = math.Inf(1)
		} else {
			out[j] = 1 / rem
		}
	}
	return out
}

// UserResponseTime returns D_i(s) = sum_j s_ij F_j(s). Computers receiving
// none of user i's jobs contribute nothing even if saturated by others.
func (s *System) UserResponseTime(p Profile, i int) float64 {
	loads := s.Loads(p)
	var acc numeric.Accumulator
	for j := range loads {
		if p[i][j] == 0 {
			continue
		}
		rem := s.Rates[j] - loads[j]
		if rem <= 0 {
			return math.Inf(1)
		}
		acc.Add(p[i][j] / rem)
	}
	return acc.Value()
}

// UserResponseTimes returns D_i(s) for every user.
func (s *System) UserResponseTimes(p Profile) []float64 {
	loads := s.Loads(p)
	out := make([]float64, s.Users())
	for i := range out {
		var acc numeric.Accumulator
		bad := false
		for j := range loads {
			if p[i][j] == 0 {
				continue
			}
			rem := s.Rates[j] - loads[j]
			if rem <= 0 {
				bad = true
				break
			}
			acc.Add(p[i][j] / rem)
		}
		if bad {
			out[i] = math.Inf(1)
		} else {
			out[i] = acc.Value()
		}
	}
	return out
}

// OverallResponseTime returns the system-wide expected response time
// D(s) = (1/Phi) sum_i phi_i D_i(s) = (1/Phi) sum_j lambda_j F_j(s),
// the objective of the GOS scheme.
func (s *System) OverallResponseTime(p Profile) float64 {
	times := s.UserResponseTimes(p)
	var acc numeric.Accumulator
	for i, d := range times {
		if math.IsInf(d, 1) {
			return math.Inf(1)
		}
		acc.Add(s.Arrivals[i] * d)
	}
	return acc.Value() / s.TotalArrival()
}

// CheckStrategy verifies positivity and conservation for one strategy.
func CheckStrategy(st Strategy, n int) error {
	if len(st) != n {
		return fmt.Errorf("%w: strategy has %d entries, want %d", ErrInfeasible, len(st), n)
	}
	var acc numeric.Accumulator
	for j, f := range st {
		if math.IsNaN(f) || f < -FeasibilityTol {
			return fmt.Errorf("%w: negative fraction s[%d]=%g", ErrInfeasible, j, f)
		}
		acc.Add(f)
	}
	if !numeric.EqualWithin(acc.Value(), 1, 1e-6) {
		return fmt.Errorf("%w: fractions sum to %g, want 1", ErrInfeasible, acc.Value())
	}
	return nil
}

// CheckProfile verifies positivity, conservation and stability for the
// whole profile against the system.
func (s *System) CheckProfile(p Profile) error {
	if len(p) != s.Users() {
		return fmt.Errorf("%w: profile has %d strategies, want %d users", ErrInfeasible, len(p), s.Users())
	}
	for i := range p {
		if err := CheckStrategy(p[i], s.Computers()); err != nil {
			return fmt.Errorf("user %d: %w", i, err)
		}
	}
	loads := s.Loads(p)
	for j, l := range loads {
		if l >= s.Rates[j]*(1+FeasibilityTol) || l >= s.Rates[j]+FeasibilityTol {
			return fmt.Errorf("%w: computer %d overloaded (lambda=%g >= mu=%g)", ErrInfeasible, j, l, s.Rates[j])
		}
	}
	return nil
}

// BestResponse is the signature of a best-response solver: given the
// available rates seen by a user and the user's own arrival rate, it returns
// the strategy minimizing the user's expected response time. The canonical
// implementation is core.Optimal.
type BestResponse func(available []float64, arrival float64) (Strategy, error)

// EpsilonEquilibrium reports whether p is an eps-Nash equilibrium with
// respect to the supplied best-response solver: for every user, the best
// unilateral deviation improves D_i by at most eps (absolutely or
// relatively). It returns the largest observed improvement.
func (s *System) EpsilonEquilibrium(p Profile, br BestResponse, eps float64) (bool, float64, error) {
	var worst float64
	for i := range p {
		avail := s.AvailableRates(p, i)
		best, err := br(avail, s.Arrivals[i])
		if err != nil {
			return false, 0, fmt.Errorf("best response of user %d: %w", i, err)
		}
		cur := s.UserResponseTime(p, i)
		dev := p.Clone()
		dev[i] = best
		alt := s.UserResponseTime(dev, i)
		if impr := cur - alt; impr > worst {
			worst = impr
		}
	}
	scale := 1.0
	if ds := s.UserResponseTimes(p); len(ds) > 0 {
		if m := maxFinite(ds); m > 1 {
			scale = m
		}
	}
	return worst <= eps*scale, worst, nil
}

func maxFinite(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if !math.IsInf(x, 0) && x > m {
			m = x
		}
	}
	return m
}

// PriceOfAnarchy returns the ratio of the overall expected response time at
// profile p to the overall optimum opt (the Koutsoupias–Papadimitriou
// coordination-ratio metric cited by the paper). It returns +Inf when opt is
// zero and p is not.
func (s *System) PriceOfAnarchy(p Profile, opt float64) float64 {
	d := s.OverallResponseTime(p)
	if opt <= 0 {
		if d == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return d / opt
}
