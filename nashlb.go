// Package nashlb is a Go implementation of the noncooperative load-balancing
// framework of Grosu & Chronopoulos, "A Game-Theoretic Model and Algorithm
// for Load Balancing in Distributed Systems" (IPDPS/APDCM 2002).
//
// A distributed system of n heterogeneous M/M/1 computers (rates mu_j) is
// shared by m selfish users (Poisson arrival rates phi_i). Each user picks
// the fractions of its jobs to send to each computer so as to minimize its
// own expected response time. The package computes:
//
//   - each user's optimal strategy against the others (Optimal — the
//     paper's OPTIMAL water-filling algorithm, Theorems 2.1/2.2),
//   - the Nash equilibrium of the game (SolveNash — the paper's NASH
//     distributed best-reply algorithm, with NASH_0 and NASH_P
//     initializations), also over real message-passing rings
//     (SolveNashRing / SolveNashTCP),
//   - the three classical baselines the paper compares against:
//     Proportional (PS), Global Optimal (GOS) and Individual Optimal /
//     Wardrop (IOS),
//   - discrete-event simulations of any strategy profile (Simulate,
//     Replicate) with warmup deletion and replicated confidence intervals.
//
// Quick start:
//
//	sys, _ := nashlb.NewSystem(
//	    []float64{100, 50, 20}, // computer rates (jobs/s)
//	    []float64{40, 30},      // user arrival rates (jobs/s)
//	)
//	res, _ := nashlb.SolveNash(sys, nashlb.NashOptions{Init: nashlb.InitProportional})
//	fmt.Println(res.Profile, res.UserTimes)
//
// The experiment harness that regenerates every table and figure of the
// paper lives in cmd/experiments; see DESIGN.md and EXPERIMENTS.md.
package nashlb

import (
	"nashlb/internal/cluster"
	"nashlb/internal/core"
	"nashlb/internal/dist"
	"nashlb/internal/game"
	"nashlb/internal/megascale"
	"nashlb/internal/schemes"
	"nashlb/internal/stats"
)

// System describes the distributed system: computer processing rates and
// user arrival rates.
type System = game.System

// Strategy is one user's load-balancing strategy (fractions per computer).
type Strategy = game.Strategy

// Profile is a full strategy profile, one Strategy per user.
type Profile = game.Profile

// NewSystem validates and builds a System from computer rates mu_j and user
// arrival rates phi_i.
func NewSystem(rates, arrivals []float64) (*System, error) {
	return game.NewSystem(rates, arrivals)
}

// Optimal computes a user's best-response strategy (the paper's OPTIMAL
// algorithm) given the available processing rates it sees and its own
// arrival rate.
func Optimal(available []float64, arrival float64) (Strategy, error) {
	return core.Optimal(available, arrival)
}

// Init selects the NASH iteration's starting point.
type Init = core.Init

// Initializations of the NASH iteration.
const (
	// InitZero is the paper's NASH_0 (all-zero start).
	InitZero = core.InitZero
	// InitProportional is the paper's NASH_P (proportional start).
	InitProportional = core.InitProportional
)

// NashOptions configures SolveNash.
type NashOptions = core.Options

// NashResult is the outcome of SolveNash.
type NashResult = core.Result

// SolveNash computes the Nash equilibrium of the load-balancing game by
// round-robin best-reply iteration (the paper's NASH algorithm, run as a
// sequential driver).
func SolveNash(sys *System, opts NashOptions) (*NashResult, error) {
	return core.Solve(sys, opts)
}

// SolveNashFrom warm-starts the iteration from an explicit profile (e.g.
// the previous equilibrium after a parameter change).
func SolveNashFrom(sys *System, start Profile, opts NashOptions) (*NashResult, error) {
	return core.SolveFrom(sys, start, opts)
}

// VerifyEquilibrium checks that a profile is an eps-Nash equilibrium and
// returns the largest unilateral improvement available to any user.
func VerifyEquilibrium(sys *System, p Profile, eps float64) (bool, float64, error) {
	return core.VerifyEquilibrium(sys, p, eps)
}

// RingOptions configures the distributed ring solvers.
type RingOptions = dist.Options

// RingResult is the outcome of a distributed solve.
type RingResult = dist.Result

// SolveNashRing runs the paper's distributed token-ring protocol over
// in-process channels (one goroutine per user).
func SolveNashRing(sys *System, opts RingOptions) (*RingResult, error) {
	return dist.Solve(sys, opts)
}

// SolveNashTCP runs the token-ring protocol over loopback TCP connections
// with a JSON codec — the full wire path of a deployment.
func SolveNashTCP(sys *System, opts RingOptions) (*RingResult, error) {
	return dist.SolveTCP(sys, opts)
}

// Scheme is a static load-balancing scheme producing a full profile.
type Scheme = schemes.Scheme

// Evaluation bundles the analytic metrics of a profile.
type Evaluation = schemes.Evaluation

// The paper's schemes.
type (
	// NashScheme is the paper's noncooperative scheme as a Scheme.
	NashScheme = schemes.Nash
	// Proportional is the PS baseline.
	Proportional = schemes.Proportional
	// GlobalOptimal is the GOS baseline.
	GlobalOptimal = schemes.GlobalOptimal
	// IndividualOptimal is the IOS (Wardrop) baseline.
	IndividualOptimal = schemes.IndividualOptimal
)

// AllSchemes returns NASH, GOS, IOS and PS in the paper's presentation
// order.
func AllSchemes() []Scheme { return schemes.All() }

// RunScheme allocates with the scheme and evaluates the result analytically.
func RunScheme(s Scheme, sys *System) (Evaluation, error) {
	return schemes.Run(s, sys)
}

// Evaluate computes the analytic metrics of an arbitrary profile.
func Evaluate(sys *System, name string, p Profile) Evaluation {
	return schemes.Evaluate(sys, name, p)
}

// SimConfig configures a discrete-event simulation run.
type SimConfig = cluster.Config

// SimResult holds one run's measurements.
type SimResult = cluster.RunResult

// SimSummary aggregates replications into confidence intervals.
type SimSummary = cluster.Summary

// Interval is a symmetric confidence interval.
type Interval = stats.Interval

// Simulate performs one discrete-event run of the system under a profile.
func Simulate(cfg SimConfig) (*SimResult, error) {
	return cluster.Simulate(cfg)
}

// Replicate runs independent replications on the deterministic parallel
// engine (internal/replicate) and summarizes them with 95% Student-t
// confidence intervals. The summary is bitwise identical for any worker
// count; the pool defaults to GOMAXPROCS.
func Replicate(cfg SimConfig, reps int) (*SimSummary, error) {
	return cluster.Replicate(cfg, reps)
}

// ReplicateWorkers is Replicate with an explicit worker-pool size (values
// <= 0 select GOMAXPROCS). Changing workers never changes the results,
// only the wall-clock time.
func ReplicateWorkers(cfg SimConfig, reps, workers int) (*SimSummary, error) {
	return cluster.ReplicateWorkers(cfg, reps, workers)
}

// JainFairness returns Jain's fairness index of a vector of per-user
// expected response times.
func JainFairness(times []float64) float64 {
	return stats.JainFairness(times)
}

// JainFairnessWeighted returns Jain's fairness index of a population given in
// class-aggregated form: times[c] shared by weights[c] identical users.
func JainFairnessWeighted(times, weights []float64) float64 {
	return stats.JainFairnessWeighted(times, weights)
}

// UserClass is a group of identical users: Count members, each with arrival
// rate Phi, optionally restricted to a sorted subset of machines.
type UserClass = megascale.Class

// ClassSystem is the class-aggregated form of System for planet-scale
// populations: the solve cost depends on the number of classes, not users.
type ClassSystem = megascale.ClassSystem

// ClassProfile is a strategy profile with one row per class, stored per
// machine type: one fraction per (class, type) plus the machine → type map.
type ClassProfile = megascale.ClassProfile

// ClassOptions configures SolveNashClasses.
type ClassOptions = megascale.Options

// ClassResult is the outcome of SolveNashClasses.
type ClassResult = megascale.Result

// NewClassSystem validates and builds a class-aggregated system.
func NewClassSystem(rates []float64, classes []UserClass) (*ClassSystem, error) {
	return megascale.NewClassSystem(rates, classes)
}

// ClassifyUsers aggregates a dense per-user System into classes of users with
// identical arrival rates, returning the class system and each user's class.
func ClassifyUsers(sys *System) (*ClassSystem, []int) {
	return megascale.FromSystem(sys)
}

// SolveNashClasses computes the Nash equilibrium of the class-aggregated game
// with the incremental sparse best-reply engine (internal/megascale).
func SolveNashClasses(cs *ClassSystem, opts ClassOptions) (*ClassResult, error) {
	return megascale.Solve(cs, opts)
}

// SolveNashAggregated is a drop-in replacement for SolveNash that internally
// aggregates identical users into classes, solves the class game, and expands
// the result back to per-user form. Identical semantics, and dramatically
// faster whenever many users share an arrival rate.
func SolveNashAggregated(sys *System, opts NashOptions) (*NashResult, error) {
	return megascale.SolveSystem(sys, opts)
}
