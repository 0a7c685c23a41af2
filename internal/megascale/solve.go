package megascale

import (
	"fmt"
	"math"
	"sort"

	"nashlb/internal/core"
	"nashlb/internal/game"
	"nashlb/internal/numeric"
)

// DefaultRefreshEvery is the default period (in rounds) of the exact
// machine-load recomputation that bounds the drift of the incrementally
// maintained loads. Between refreshes the incremental loads differ from the
// exact column sums only by accumulated rounding, at most RefreshEvery
// round-updates' worth of ulps per machine.
const DefaultRefreshEvery = 64

// Options configures the class-aggregated NASH solver. The zero value mirrors
// core.Options: NASH_0 initialization, core.DefaultEpsilon, and
// core.DefaultMaxRounds.
type Options struct {
	// Init selects NASH_0 or NASH_P.
	Init core.Init
	// Epsilon is the tolerance on the per-round norm
	// sum_c Count_c * |D_c - D_c_prev| (core.DefaultEpsilon when zero).
	// The norm weights each class by its member count, so it equals the
	// dense per-user norm on the expanded game.
	Epsilon float64
	// MaxRounds bounds the iteration (core.DefaultMaxRounds when zero).
	MaxRounds int
	// RefreshEvery is the exact-load refresh period: 0 means
	// DefaultRefreshEvery, a negative value disables mid-iteration
	// refreshes entirely, and 1 recomputes exact loads every round (the
	// non-incremental reference mode used by the invariance tests).
	RefreshEvery int
	// OnRound, when non-nil, observes every completed round.
	OnRound func(core.RoundStat)
}

// Result is the outcome of the class-aggregated solver.
type Result struct {
	// Profile is the computed strategy profile, over the machine types the
	// solve used.
	Profile *ClassProfile
	// Rounds is the number of completed best-reply rounds.
	Rounds int
	// Norms[k] is the population-weighted norm after round k+1.
	Norms []float64
	// Converged reports whether the norm dropped below epsilon.
	Converged bool
	// ClassTimes holds each class's per-member expected response time at
	// Profile (every member of a class has the same D).
	ClassTimes []float64
	// OverallTime is the system-wide expected response time at Profile.
	OverallTime float64
	// Init echoes the initialization used.
	Init core.Init
	// Solves counts class best-response recomputations across all rounds.
	Solves int64
	// Skips counts the (round, class) cells the dirty tracking proved
	// unchanged, so no best response was recomputed.
	Skips int64
	// StateBytes is the resident size of the solver state (profile plus
	// per-type state and per-class caches), the memory figure reported by
	// EXT11.
	StateBytes int64
}

// classState is the solver's per-class cache, kept per machine type (see
// groupMachines). cols lists the types the class may use, ascending, and
// g their sizes; frac[k] is the per-member fraction sent to each machine of
// type cols[k]. A, sqrtA and order are the incremental water-filling caches:
// A[k] is the processing rate of each machine of type cols[k] available to
// the class (mu - load + ownWeight*frac, unchanged by the class's own
// moves), and order holds positions 0..len(cols)-1 sorted by decreasing A
// with ties broken by ascending position — the same canonical order
// numeric.ArgsortDescending produces.
type classState struct {
	phi    float64
	w      float64 // Count
	weight float64 // Count * Phi
	cols   []int32
	g      []float64
	frac   []float64
	A      []float64
	sqrtA  []float64
	order  []int32
	// lastTick is the solver tick this class last solved (or verified
	// itself clean) against; types stamped later are dirty. -1 = never.
	lastTick int64
	// lastD is D_c after the class's previous update (0 for a zero row or
	// non-finite D, matching core.SolveFrom's NASH_0 semantics).
	lastD float64
	// active is the active-prefix size from the previous solve and alpha
	// the previous KKT multiplier — warm starts for the weighted solve.
	active int
	alpha  float64
}

// sort.Interface over order: decreasing A, ties by ascending position.
func (st *classState) Len() int { return len(st.order) }
func (st *classState) Less(i, j int) bool {
	a, b := st.order[i], st.order[j]
	if st.A[a] != st.A[b] {
		return st.A[a] > st.A[b]
	}
	return a < b
}
func (st *classState) Swap(i, j int) { st.order[i], st.order[j] = st.order[j], st.order[i] }

// insertionRepair restores the canonical order by insertion sort, which runs
// in O(len + inversions): cheap when only a few types moved.
func (st *classState) insertionRepair() {
	order, A := st.order, st.A
	for i := 1; i < len(order); i++ {
		k := order[i]
		a := A[k]
		j := i
		for j > 0 {
			prev := order[j-1]
			if A[prev] > a || (A[prev] == a && prev < k) {
				break
			}
			order[j] = order[j-1]
			j--
		}
		order[j] = k
	}
}

// solver is the mutable state of one Solve call. It works over machine
// types rather than machines: every sum a best response takes runs over the
// class's types, weighted by type size, so a type costs what one machine
// costs.
type solver struct {
	cs *ClassSystem
	// typeOf[j] is machine j's type; type t has size[t] machines, each of
	// rate rate[t].
	typeOf []int32
	rate   []float64
	size   []float64
	// loads[t] is the incrementally maintained lambda of each machine of
	// type t; comp[t] its Neumaier compensation, folded in by refresh.
	loads []float64
	comp  []float64
	// stamp[t] is the tick of type t's last load change; lastChange the
	// most recent stamp anywhere, for an O(1) clean-skip per class.
	stamp      []int64
	tick       int64
	lastChange int64
	classes    []classState
	// newFrac is the scratch best response of the class being solved,
	// sized to the widest class.
	newFrac []float64
	solves  int64
	skips   int64
}

// Solve runs the class-aggregated NASH best-reply iteration from the
// initialization selected in opts. It is the class-level counterpart of
// core.Solve: one round updates every class in turn with its exact
// symmetric-within-class best response, and the norm is the
// population-weighted response-time change.
func Solve(cs *ClassSystem, opts Options) (*Result, error) {
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	s := newSolver(cs, nil)
	if opts.Init == core.InitProportional {
		s.proportional()
	}
	return s.solve(opts)
}

// SolveFrom runs the iteration from an explicit starting profile (warm
// start). The profile must have been built for cs (same row and column
// structure); it is not mutated.
func SolveFrom(cs *ClassSystem, start *ClassProfile, opts Options) (*Result, error) {
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	if start == nil {
		return nil, fmt.Errorf("megascale: nil starting profile")
	}
	if !start.shapedFor(cs) {
		return nil, fmt.Errorf("megascale: starting profile shape does not match the class system")
	}
	return newSolver(cs, start).solve(opts)
}

// solve iterates best-reply rounds to convergence and builds the result.
func (s *solver) solve(opts Options) (*Result, error) {
	eps := opts.Epsilon
	if eps <= 0 {
		eps = core.DefaultEpsilon
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = core.DefaultMaxRounds
	}
	refreshEvery := opts.RefreshEvery
	if refreshEvery == 0 {
		refreshEvery = DefaultRefreshEvery
	}

	res := &Result{Init: opts.Init}
	for round := 1; round <= maxRounds; round++ {
		norm, maxShift, err := s.round()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		res.Rounds = round
		res.Norms = append(res.Norms, norm)
		if opts.OnRound != nil {
			opts.OnRound(core.RoundStat{Round: round, Norm: norm, MaxShift: maxShift})
		}
		if norm <= eps {
			res.Converged = true
			break
		}
		if refreshEvery > 0 && round%refreshEvery == 0 {
			s.refresh()
		}
	}
	s.recomputeLoads() // exact loads for the final report
	res.ClassTimes = make([]float64, len(s.classes))
	var overall numeric.Accumulator
	for c := range s.classes {
		st := &s.classes[c]
		d := s.classTime(st)
		res.ClassTimes[c] = d
		overall.Add(st.weight * d)
	}
	res.OverallTime = overall.Value() / s.cs.TotalArrival()
	res.Solves, res.Skips = s.solves, s.skips
	res.Profile = s.profile()
	res.StateBytes = s.stateBytes(res.Profile)
	if !res.Converged {
		return res, fmt.Errorf("%w after %d rounds (norm=%g, eps=%g)",
			core.ErrNotConverged, res.Rounds, res.Norms[len(res.Norms)-1], eps)
	}
	return res, nil
}

// groupMachines partitions cs's machines into types: machines with
// bitwise-equal rates that the same classes may use and, when start is
// non-nil, that start with bitwise-equal fractions in every class row.
// Members of a type are interchangeable in the game, and a best reply
// treats interchangeable machines alike, so an iteration that starts them
// alike keeps them alike and one entry per type carries the whole type.
// Types are numbered in order of their lowest machine, so with all-distinct
// rates type j is machine j.
//
// The partition starts from the rate groups and is refined by each class
// row: a group splits when only some of its machines are in the row, or
// when they start with different fractions there. Without a start, a class
// allowed every machine splits nothing and is not scanned.
func groupMachines(cs *ClassSystem, start *ClassProfile) (typeOf []int32, size []float64) {
	of := make([]int32, len(cs.Rates))
	var count []int
	byRate := make(map[uint64]int32)
	for j, mu := range cs.Rates {
		b, ok := byRate[math.Float64bits(mu)]
		if !ok {
			b = int32(len(count))
			byRate[math.Float64bits(mu)] = b
			count = append(count, 0)
		}
		of[j] = b
		count[b]++
	}

	// Per-group scratch of one refinement: mark[b] is the class whose row
	// last touched group b (-1 when b stays whole), first[b] the start
	// value of b's first machine in the row and hit[b] how many of b's
	// machines the row holds with that value.
	var mark, hit []int
	var first []uint64
	var touched []int32
	var moved map[[2]uint64]int32
	// at[t] holds the bits of the start's fraction for its type t in the
	// row being scanned.
	var at []uint64
	for c := range cs.Classes {
		cols := cs.Classes[c].Machines
		if start != nil {
			if at == nil {
				at = make([]uint64, len(start.size))
			}
			types, fracs := start.typeRow(c)
			for k, t := range types {
				at[t] = math.Float64bits(fracs[k])
			}
			if cols == nil {
				cols = start.allMachines()
			}
		} else if cols == nil {
			continue
		}
		for len(mark) < len(count) {
			mark, hit, first = append(mark, -1), append(hit, 0), append(first, 0)
		}
		value := func(j int32) uint64 {
			if start == nil {
				return 0
			}
			return at[start.typeOf[j]]
		}
		touched = touched[:0]
		for _, j := range cols {
			b, v := of[j], value(j)
			if mark[b] != c {
				mark[b], first[b], hit[b] = c, v, 0
				touched = append(touched, b)
			}
			if v == first[b] {
				hit[b]++
			}
		}
		whole := true
		for _, b := range touched {
			if hit[b] == count[b] {
				mark[b] = -1
			} else {
				whole = false
			}
		}
		if whole {
			continue
		}
		// Move the row's machines of every group that splits into new
		// groups keyed by (old group, start value); the rest stay put.
		if moved == nil {
			moved = make(map[[2]uint64]int32)
		}
		clear(moved)
		for _, j := range cols {
			b := of[j]
			if mark[b] != c {
				continue
			}
			key := [2]uint64{uint64(b), value(j)}
			nb, ok := moved[key]
			if !ok {
				nb = int32(len(count))
				moved[key] = nb
				count = append(count, 0)
			}
			of[j] = nb
			count[b]--
			count[nb]++
		}
	}

	// Number the non-empty groups in order of their lowest machine.
	size = make([]float64, 0, len(count))
	renum := make([]int32, len(count))
	for b := range renum {
		renum[b] = -1
	}
	for j, b := range of {
		if renum[b] < 0 {
			renum[b] = int32(len(size))
			size = append(size, 0)
		}
		of[j] = renum[b]
		size[of[j]]++
	}
	return of, size
}

// newSolver groups cs's machines into types and loads the starting
// fractions from start, or the all-zero NASH_0 start when start is nil.
func newSolver(cs *ClassSystem, start *ClassProfile) *solver {
	typeOf, size := groupMachines(cs, start)
	types := len(size)
	s := &solver{
		cs:      cs,
		typeOf:  typeOf,
		rate:    make([]float64, types),
		size:    size,
		loads:   make([]float64, types),
		comp:    make([]float64, types),
		stamp:   make([]int64, types),
		classes: make([]classState, len(cs.Classes)),
	}
	for j, t := range typeOf {
		s.rate[t] = cs.Rates[j]
	}
	// A class allowed every machine uses every type: those classes share
	// one type list. listed[t] is 1 + the last class that listed type t.
	all := make([]int32, types)
	for t := range all {
		all[t] = int32(t)
	}
	var listed []int
	for c := range s.classes {
		st := &s.classes[c]
		cl := cs.Classes[c]
		st.phi = cl.Phi
		st.w = float64(cl.Count)
		st.weight = cl.Weight()
		if cl.Machines == nil {
			st.cols, st.g = all, size
		} else {
			// A type lies wholly inside or outside the row, and its first
			// machine in the ascending row is its lowest, so the types come
			// out ascending.
			if listed == nil {
				listed = make([]int, types)
			}
			for _, j := range cl.Machines {
				if t := typeOf[j]; listed[t] != c+1 {
					listed[t] = c + 1
					st.cols = append(st.cols, t)
					st.g = append(st.g, size[t])
				}
			}
		}
		span := len(st.cols)
		st.frac = make([]float64, span)
		st.A = make([]float64, span)
		st.sqrtA = make([]float64, span)
		st.order = make([]int32, span)
		if span > len(s.newFrac) {
			s.newFrac = make([]float64, span)
		}
		for k := range st.order {
			st.order[k] = int32(k)
		}
		st.lastTick = -1
	}
	if start != nil {
		// Every machine of a type starts with the same fraction, so read
		// it at the type's lowest machine: startType[t] is that machine's
		// type in the start profile.
		startType := make([]int32, types)
		for j := len(typeOf) - 1; j >= 0; j-- {
			startType[typeOf[j]] = start.typeOf[j]
		}
		at := make([]float64, len(start.size))
		for c := range s.classes {
			types, fracs := start.typeRow(c)
			for k, t := range types {
				at[t] = fracs[k]
			}
			st := &s.classes[c]
			for k, t := range st.cols {
				st.frac[k] = at[startType[t]]
			}
		}
	}
	s.begin()
	return s
}

// proportional loads the NASH_P start: each class splits in proportion to
// the rates of its allowed machines, as ProportionalClassProfile does.
func (s *solver) proportional() {
	for c := range s.classes {
		st := &s.classes[c]
		var total numeric.Accumulator
		for k, t := range st.cols {
			total.Add(st.g[k] * s.rate[t])
		}
		tv := total.Value()
		for k, t := range st.cols {
			st.frac[k] = s.rate[t] / tv
		}
	}
	s.begin()
}

// begin computes the loads of the starting fractions and each class's
// D_c^(0): zero for all-zero rows (NASH_0 semantics) and for saturated
// (non-finite) times, the actual response time otherwise — the class image
// of core.SolveFrom's prevTimes initialization.
func (s *solver) begin() {
	s.recomputeLoads()
	for c := range s.classes {
		st := &s.classes[c]
		st.lastD = 0
		if d := s.classTime(st); !math.IsInf(d, 0) {
			st.lastD = d
		}
	}
}

// profile returns the solver's fractions as a profile over its machine
// types, sharing the machine → type map and the type sizes.
func (s *solver) profile() *ClassProfile {
	nnz := 0
	for c := range s.classes {
		nnz += len(s.classes[c].cols)
	}
	p := newProfile(s.typeOf, s.size, len(s.classes), nnz)
	for c := range s.classes {
		p.addRow(s.classes[c].cols, s.classes[c].frac)
	}
	return p
}

// classTime returns the per-member expected response time of the class at
// its current fractions under the solver's current loads: sum over the
// class's support of frac/(mu - load); +Inf if a used machine is saturated,
// 0 for an all-zero row.
func (s *solver) classTime(st *classState) float64 {
	var acc numeric.Accumulator
	for k, t := range st.cols {
		f := st.frac[k]
		if f == 0 {
			continue
		}
		rem := s.rate[t] - s.loads[t]
		if rem <= 0 {
			return math.Inf(1)
		}
		acc.Add(st.g[k] * (f / rem))
	}
	return acc.Value()
}

// recomputeLoads rebuilds loads exactly from the fractions with compensated
// per-type sums (the same arithmetic as ClassProfile.Loads on each machine).
func (s *solver) recomputeLoads() {
	for t := range s.loads {
		s.loads[t] = 0
		s.comp[t] = 0
	}
	for c := range s.classes {
		st := &s.classes[c]
		for k, t := range st.cols {
			addCompensated(s.loads, s.comp, int(t), st.weight*st.frac[k])
		}
	}
	for t := range s.loads {
		s.loads[t] += s.comp[t]
	}
}

// refresh is the periodic drift-bounding pass: exact loads, then every
// type is stamped dirty so each class revalidates its cached capacities
// against the refreshed values on its next turn.
func (s *solver) refresh() {
	s.recomputeLoads()
	s.tick++
	s.lastChange = s.tick
	for t := range s.stamp {
		s.stamp[t] = s.tick
	}
}

// round performs one best-reply round: every class in turn revalidates its
// dirty types and, if anything changed, recomputes its symmetric best
// response and installs it. Classes whose available capacities are provably
// unchanged are skipped outright — their best response, and hence their
// norm contribution, is identical to the previous round's, which was
// already below the per-class threshold when the loop continues.
func (s *solver) round() (norm, maxShift float64, err error) {
	for ci := range s.classes {
		st := &s.classes[ci]
		fresh := st.lastTick < 0
		if !fresh && st.lastTick >= s.lastChange {
			s.skips++
			continue
		}
		changed := 0
		if fresh {
			for k, t := range st.cols {
				a := s.rate[t] - s.loads[t] + st.weight*st.frac[k]
				st.A[k] = a
				st.sqrtA[k] = sqrtPos(a)
			}
			changed = len(st.cols)
		} else {
			for k, t := range st.cols {
				if s.stamp[t] <= st.lastTick {
					continue
				}
				a := s.rate[t] - s.loads[t] + st.weight*st.frac[k]
				if a != st.A[k] {
					st.A[k] = a
					st.sqrtA[k] = sqrtPos(a)
					changed++
				}
			}
		}
		if changed == 0 {
			st.lastTick = s.tick
			s.skips++
			continue
		}
		d, shift, serr := s.solveClass(st, fresh, changed)
		if serr != nil {
			return 0, 0, fmt.Errorf("class %d: %w", ci, serr)
		}
		s.solves++
		if shift > maxShift {
			maxShift = shift
		}
		norm += st.w * math.Abs(d-st.lastD)
		st.lastD = d
	}
	return norm, maxShift, nil
}

func sqrtPos(a float64) float64 {
	if a > 0 {
		return math.Sqrt(a)
	}
	return 0
}

// solveClass computes the class's exact best response — the symmetric
// within-class equilibrium against the other classes' current loads — and
// installs it, returning the per-member response time and the per-member L1
// strategy shift.
//
// Because every member's own contribution cancels out of the capacity the
// class as a whole sees (A_j = mu_j - lambda_j + W*s_j is invariant under
// the class's own moves), the cached A vector stays valid across the
// class's own update and only other classes' moves dirty it.
func (s *solver) solveClass(st *classState, fresh bool, changed int) (d, shift float64, err error) {
	span := len(st.order)
	// Repair the cached order: full sort when a large fraction of the
	// types moved (or on first touch), insertion repair otherwise.
	if fresh || changed*8 > span {
		sort.Sort(st)
	} else {
		st.insertionRepair()
	}
	usable := 0
	for usable < span && st.A[st.order[usable]] > 0 {
		usable++
	}
	if usable == 0 {
		return 0, 0, fmt.Errorf("%w: weight=%g, no usable machine", core.ErrInsufficientCapacity, st.weight)
	}

	var c int
	var waterT, alpha float64
	if st.w == 1 {
		c, waterT, err = st.solveSingleton(usable)
	} else {
		c, alpha, err = st.solveWeighted(usable)
	}
	if err != nil {
		return 0, 0, err
	}
	st.active = c
	st.alpha = alpha

	// Assign fractions s_k = (A_k - u_k)/W over the active prefix, where
	// u_k is the member-residual capacity: t*sqrt(A_k) in the singleton
	// case (exactly core.Optimal's water-filling step) and the KKT root
	// for weighted classes.
	newFrac := s.newFrac[:span]
	for k := range newFrac {
		newFrac[k] = 0
	}
	if c == 1 {
		// Single active type: splitting it evenly directly avoids losing
		// the answer to cancellation when A >> W (same as core.Optimal).
		newFrac[st.order[0]] = 1 / st.g[st.order[0]]
	} else {
		wm1 := st.w - 1
		den := 2 * st.w * alpha
		var total numeric.Accumulator
		for x := 0; x < c; x++ {
			k := st.order[x]
			var u float64
			if st.w == 1 {
				u = waterT * st.sqrtA[k]
			} else {
				u = (wm1 + math.Sqrt(wm1*wm1+2*den*st.A[k])) / den
			}
			f := (st.A[k] - u) / st.weight
			f = numeric.ClampNonNegative(f, 1e-9)
			if f < 0 {
				return 0, 0, fmt.Errorf("megascale: internal error: negative fraction %g at order %d", f, x)
			}
			newFrac[k] = f
			total.Add(st.g[k] * f)
		}
		tv := total.Value()
		if !(tv > 0) || math.IsInf(tv, 0) || math.IsNaN(tv) {
			// Catastrophic cancellation across extreme rate spreads:
			// fall back to the dominant type, the water-filling limit
			// in that regime (mirrors core.Optimal).
			for x := 0; x < c; x++ {
				newFrac[st.order[x]] = 0
			}
			newFrac[st.order[0]] = 1 / st.g[st.order[0]]
		} else if tv != 1 {
			for x := 0; x < c; x++ {
				k := st.order[x]
				if newFrac[k] > 0 {
					newFrac[k] /= tv
				}
			}
		}
	}

	// Per-member response time at the new strategy, against the capacities
	// the class saw: D = sum s_k/(A_k - W*s_k) over machines — the class
	// image of core.ResponseTime.
	var acc numeric.Accumulator
	dInf := false
	for x := 0; x < span; x++ {
		f := newFrac[x]
		if f == 0 {
			continue
		}
		rem := st.A[x] - f*st.weight
		if rem <= 0 {
			dInf = true
			break
		}
		acc.Add(st.g[x] * (f / rem))
	}
	if dInf {
		d = math.Inf(1)
	} else {
		d = acc.Value()
	}

	// Install: update the shared loads and stamp the types that moved.
	bumped := false
	for k, t := range st.cols {
		delta := newFrac[k] - st.frac[k]
		if delta == 0 {
			continue
		}
		if !bumped {
			s.tick++
			s.lastChange = s.tick
			bumped = true
		}
		s.loads[t] += st.weight * delta
		s.stamp[t] = s.tick
		shift += st.g[k] * math.Abs(delta)
		st.frac[k] = newFrac[k]
	}
	st.lastTick = s.tick
	return d, shift, nil
}

// solveSingleton finds the active prefix and water level for a size-1 class
// by the paper's OPTIMAL shrink loop, identical in comparisons to
// core.Optimal but with O(1) running prefix sums instead of re-summation:
// t = (sum A - phi)/(sum sqrt A), shrinking while t >= sqrt(A_c). Each sum
// runs over machines, a type of g machines contributing g terms.
func (st *classState) solveSingleton(usable int) (c int, t float64, err error) {
	var sumA, sumS float64
	for x := 0; x < usable; x++ {
		k := st.order[x]
		sumA += st.g[k] * st.A[k]
		sumS += st.g[k] * st.sqrtA[k]
	}
	if st.phi >= sumA {
		return 0, 0, fmt.Errorf("%w: lambda=%g, available=%g", core.ErrInsufficientCapacity, st.phi, sumA)
	}
	c = usable
	t = (sumA - st.phi) / sumS
	for c > 1 && t >= st.sqrtA[st.order[c-1]] {
		c--
		k := st.order[c]
		sumA -= st.g[k] * st.A[k]
		sumS -= st.g[k] * st.sqrtA[k]
		t = (sumA - st.phi) / sumS
	}
	return c, t, nil
}

// solveWeighted finds the active prefix and KKT multiplier alpha for a class
// of w > 1 members. At the symmetric within-class equilibrium each member's
// residual capacity u_k = A_k - W*s_k on active machines solves
//
//	w*alpha*u^2 - (w-1)*u - A_k = 0,  i.e.
//	u_k(alpha) = [(w-1) + sqrt((w-1)^2 + 4*w*alpha*A_k)] / (2*w*alpha),
//
// with alpha chosen so sum_k g_k*u_k = sum_k g_k*A_k - W (conservation over
// machines, a type of g machines contributing g terms), and type k active
// iff alpha*A_k > 1. For w = 1 this reduces exactly to the paper's water
// level (alpha = 1/t^2). The root is found by safeguarded Newton —
// sum g_k*u_k is strictly decreasing in alpha — warm-started from the
// class's previous multiplier, and the active prefix is iterated to
// consistency.
func (st *classState) solveWeighted(usable int) (c int, alpha float64, err error) {
	c = st.active
	if c < 1 || c > usable {
		c = usable
	}
	var sumA, sumS float64
	for x := 0; x < c; x++ {
		k := st.order[x]
		sumA += st.g[k] * st.A[k]
		sumS += st.g[k] * st.sqrtA[k]
	}
	alpha = st.alpha
	for iter := 0; ; iter++ {
		if iter > 2*usable+4 {
			return 0, 0, fmt.Errorf("megascale: internal error: active-set iteration did not settle (usable=%d)", usable)
		}
		for sumA <= st.weight && c < usable {
			k := st.order[c]
			sumA += st.g[k] * st.A[k]
			sumS += st.g[k] * st.sqrtA[k]
			c++
		}
		if sumA <= st.weight {
			return 0, 0, fmt.Errorf("%w: weight=%g, available=%g", core.ErrInsufficientCapacity, st.weight, sumA)
		}
		alpha = st.solveAlpha(c, sumA, sumS, alpha)
		// Consistency: the prefix implied by alpha is {k : alpha*A_k > 1}.
		c2 := c
		for c2 < usable && alpha*st.A[st.order[c2]] > 1 {
			k := st.order[c2]
			sumA += st.g[k] * st.A[k]
			sumS += st.g[k] * st.sqrtA[k]
			c2++
		}
		if c2 == c {
			for c2 > 1 && alpha*st.A[st.order[c2-1]] <= 1 {
				c2--
				k := st.order[c2]
				sumA -= st.g[k] * st.A[k]
				sumS -= st.g[k] * st.sqrtA[k]
			}
		}
		if c2 == c {
			return c, alpha, nil
		}
		c = c2
	}
}

// solveAlpha solves sum_{x<c} g_x*u_x(alpha) = sumA - W for alpha by Newton
// with a bisection safeguard. The left-hand side decreases from +Inf
// (alpha->0) to 0 (alpha->Inf), so the root exists and is unique whenever
// sumA > W.
func (st *classState) solveAlpha(c int, sumA, sumS, warm float64) float64 {
	target := sumA - st.weight
	alpha := warm
	if !(alpha > 0) || math.IsInf(alpha, 0) || math.IsNaN(alpha) {
		// Water-level analog of the singleton case as the cold start.
		t0 := target / sumS
		alpha = 1 / (t0 * t0)
	}
	wm1 := st.w - 1
	lo, hi := 0.0, math.Inf(1)
	for it := 0; it < 100; it++ {
		den := 2 * st.w * alpha
		var sumU numeric.Accumulator
		var dU float64
		for x := 0; x < c; x++ {
			k := st.order[x]
			r := math.Sqrt(wm1*wm1 + 2*den*st.A[k])
			u := (wm1 + r) / den
			sumU.Add(st.g[k] * u)
			dU -= st.g[k] * st.w * u * u / r
		}
		F := sumU.Value() - target
		if F > 0 {
			lo = alpha
		} else if F < 0 {
			hi = alpha
		} else {
			break
		}
		if math.Abs(F) <= 1e-12*target {
			break
		}
		next := alpha - F/dU
		if !(next > lo && next < hi) || math.IsNaN(next) {
			if math.IsInf(hi, 1) {
				next = alpha * 2
			} else {
				next = lo + (hi-lo)/2
			}
		}
		if next == alpha {
			break
		}
		alpha = next
	}
	return alpha
}

// stateBytes reports the resident size of the solver's arrays plus the
// profile built from them, which holds the machine → type map and the type
// sizes.
func (s *solver) stateBytes(prof *ClassProfile) int64 {
	bytes := prof.MemoryBytes() + int64(len(s.newFrac))*8
	// Per type: rate, loads, comp, stamp, and the shared type list.
	bytes += int64(len(s.size)) * (4*8 + 4)
	for c := range s.classes {
		st := &s.classes[c]
		// frac, A, sqrtA and order, plus cols and g where the class owns
		// them.
		span := int64(len(st.cols))
		bytes += span * (3*8 + 4)
		if s.cs.Classes[c].Machines != nil {
			bytes += span * (4 + 8)
		}
	}
	return bytes
}

// SolveSystem solves a dense per-user system through the class engine: the
// users are aggregated with FromSystem, the class game is solved, and the
// result is expanded back to per-user form. It is a drop-in replacement for
// core.Solve — identical options, result shape, and error contract — that
// costs O(classes) per round instead of O(users).
func SolveSystem(sys *game.System, opts core.Options) (*core.Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	cs, userToClass := FromSystem(sys)
	res, err := Solve(cs, Options{
		Init:      opts.Init,
		Epsilon:   opts.Epsilon,
		MaxRounds: opts.MaxRounds,
		OnRound:   opts.OnRound,
	})
	if res == nil {
		return nil, err
	}
	profile, perr := res.Profile.ExpandUsers(cs, userToClass)
	if perr != nil {
		return nil, perr
	}
	out := &core.Result{
		Profile:     profile,
		Rounds:      res.Rounds,
		Norms:       res.Norms,
		Converged:   res.Converged,
		UserTimes:   make([]float64, len(userToClass)),
		OverallTime: res.OverallTime,
		Init:        res.Init,
	}
	for i, c := range userToClass {
		out.UserTimes[i] = res.ClassTimes[c]
	}
	return out, err
}

// VerifyEquilibrium checks that the class profile is an eps-Nash equilibrium
// of the expanded per-user game without materializing the users: for each
// class it gives a single member its exact per-user best response
// (core.Optimal over the class's allowed machines) and measures the
// response-time improvement. The scale convention matches
// game.System.EpsilonEquilibrium: the tolerance is relative to the largest
// finite member time once that exceeds 1.
func VerifyEquilibrium(cs *ClassSystem, p *ClassProfile, eps float64) (bool, float64, error) {
	if err := cs.Validate(); err != nil {
		return false, 0, err
	}
	loads := p.Loads(cs)
	span := 0
	for c := range cs.Classes {
		if m := cs.machineSpan(c); m > span {
			span = m
		}
	}
	avail := make([]float64, span)
	var worst, scale float64
	for c := range cs.Classes {
		cl := cs.Classes[c]
		cols, vals := p.Row(c)
		a := avail[:len(cols)]
		var cur numeric.Accumulator
		curInf := false
		for k, j := range cols {
			a[k] = cs.Rates[j] - loads[j] + cl.Phi*vals[k]
			if vals[k] != 0 {
				rem := cs.Rates[j] - loads[j]
				if rem <= 0 {
					curInf = true
				} else {
					cur.Add(vals[k] / rem)
				}
			}
		}
		best, err := core.Optimal(a, cl.Phi)
		if err != nil {
			return false, 0, fmt.Errorf("best response of class %d: %w", c, err)
		}
		curD := cur.Value()
		if curInf {
			curD = math.Inf(1)
		} else if curD > scale {
			scale = curD
		}
		alt := core.ResponseTime(a, cl.Phi, best)
		if impr := curD - alt; impr > worst {
			worst = impr
		}
	}
	if scale < 1 {
		scale = 1
	}
	return worst <= eps*scale, worst, nil
}
