package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"nashlb/internal/fleet"
	"nashlb/internal/megascale"
)

// Output checks. Each returns an error describing the first violation; any
// error makes the run incorrect and the command exit non-zero.

// tableRecord is one routing table the gateway had installed.
type tableRecord struct {
	epoch, version uint64
	// from is just before InstallTable was called and installed just after
	// it returned: the table may have served requests from from until the
	// next table's installed.
	from, installed time.Time
	// rows holds the routing row of each user class.
	rows [][]float64
	// err is InstallTable's result; fence is the gateway's TableEpoch
	// right after it.
	err   error
	fence [2]uint64
}

// tablesDuring returns the indices of the tables that may have routed a
// request sent at sent and answered at done.
func tablesDuring(hist []tableRecord, sent, done time.Time) []int {
	var out []int
	for k := range hist {
		if hist[k].from.After(done) {
			break
		}
		if k+1 < len(hist) && hist[k+1].installed.Before(sent) {
			continue
		}
		out = append(out, k)
	}
	return out
}

// checkSupport verifies that every 200 names a backend inside the support
// of its user's row in a table that was installed while it was in flight.
func checkSupport(res *phaseResult, hist []tableRecord, classOf []int) error {
	for i := range res.samples {
		s := &res.samples[i]
		if !s.ok() {
			continue
		}
		c := classOf[s.user]
		found := false
		for _, k := range tablesDuring(hist, res.start.Add(s.sent), res.start.Add(s.done)) {
			row := hist[k].rows[c]
			if int(s.backend) < len(row) && row[s.backend] > 0 {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("user %d (class %d) served by backend %d, outside the support of every table installed while in flight",
				s.user, c, s.backend)
		}
	}
	return nil
}

// splitTolerance is the z-score a per-backend count may reach before the
// split counts as wrong: with a few dozen backends the chance that a correct
// router trips it is below 1e-7.
const splitTolerance = 6

// checkSplit verifies that the per-backend counts of the 200s match the
// routing tables: each request adds its row's probabilities to the expected
// counts, and each observed count must lie within splitTolerance standard
// deviations, widened by the requests that overlapped a table swap.
func checkSplit(res *phaseResult, hist []tableRecord, classOf []int, backends int) error {
	obs := make([]float64, backends)
	exp := make([]float64, backends)
	vars := make([]float64, backends)
	var ambiguous float64
	for i := range res.samples {
		s := &res.samples[i]
		if !s.ok() {
			continue
		}
		if int(s.backend) >= backends {
			return fmt.Errorf("backend %d out of range (%d backends)", s.backend, backends)
		}
		obs[s.backend]++
		ks := tablesDuring(hist, res.start.Add(s.sent), res.start.Add(s.done))
		if len(ks) == 0 {
			return fmt.Errorf("no table was installed when user %d was sent", s.user)
		}
		if len(ks) > 1 {
			ambiguous++
		}
		row := hist[ks[0]].rows[classOf[s.user]]
		var sum float64
		for _, p := range row {
			sum += math.Max(p, 0)
		}
		for j, p := range row {
			p = math.Max(p, 0) / sum
			exp[j] += p
			vars[j] += p * (1 - p)
		}
	}
	for j := range obs {
		tol := splitTolerance*math.Sqrt(vars[j]) + ambiguous + 1
		if math.Abs(obs[j]-exp[j]) > tol {
			return fmt.Errorf("backend %d served %.0f requests, the installed tables predict %.1f ± %.1f",
				j, obs[j], exp[j], tol)
		}
	}
	return nil
}

// checkGatewayCounts verifies that the gateway's per-backend served counters
// moved by exactly the 200s the client saw per backend.
func checkGatewayCounts(res []*phaseResult, before, after []int64) error {
	seen := make([]int64, len(before))
	for _, r := range res {
		for i := range r.samples {
			if s := &r.samples[i]; s.ok() && int(s.backend) < len(seen) {
				seen[s.backend]++
			}
		}
	}
	for j := range seen {
		if d := after[j] - before[j]; d != seen[j] {
			return fmt.Errorf("gateway counted %d requests served by backend %d, the client saw %d", d, j, seen[j])
		}
	}
	return nil
}

// checkDenied verifies that admission refused nothing: hot-path configures
// the bucket far above any rate it offers.
func checkDenied(denied int64) error {
	if denied != 0 {
		return fmt.Errorf("admission denied %d requests on a bucket sized far above the offered rate", denied)
	}
	return nil
}

// checkReroutes verifies that nothing but the control plane changed the
// routing on healthy backends: no health-driven re-equilibration (an
// unmanaged gateway's breaker change installs its own table), no
// best-response rebalance, and no weight change reported to a managed
// gateway's control plane. Arguments are counter deltas over the run.
func checkReroutes(reequils, rebalances, weightReports int64) error {
	if reequils != 0 || rebalances != 0 || weightReports != 0 {
		return fmt.Errorf("routing changed outside the control plane: %d health re-equilibrations, %d rebalances, %d weight reports",
			reequils, rebalances, weightReports)
	}
	return nil
}

// checkInstalls verifies that every control-plane install was accepted and
// that the (epoch, version) fence advanced strictly, in install order.
func checkInstalls(hist []tableRecord) error {
	var prev [2]uint64
	for k, t := range hist {
		if t.err != nil {
			return fmt.Errorf("install %d (epoch %d, version %d) refused: %w", k, t.epoch, t.version, t.err)
		}
		want := [2]uint64{t.epoch, t.version}
		if t.fence != want {
			return fmt.Errorf("install %d: gateway fence at %v after installing %v", k, t.fence, want)
		}
		if k > 0 && !(want[0] > prev[0] || (want[0] == prev[0] && want[1] > prev[1])) {
			return fmt.Errorf("install %d: (epoch, version) %v does not follow %v", k, want, prev)
		}
		prev = want
	}
	return nil
}

// checkWAL re-opens the durable directory and verifies that it returns the
// last snapshot saved.
func checkWAL(dir string, want fleet.Snapshot) error {
	_, got, err := fleet.OpenWAL(dir)
	if err != nil {
		return fmt.Errorf("re-open WAL: %w", err)
	}
	if got == nil {
		return errors.New("re-opened WAL holds no snapshot")
	}
	if got.Gen != want.Gen || got.Epoch != want.Epoch || got.Version != want.Version || got.Leader != want.Leader ||
		got.AdmitFrac != want.AdmitFrac || !slices.Equal(got.Active, want.Active) || !got.Profile.Equal(want.Profile) {
		return fmt.Errorf("re-opened WAL holds epoch %d version %d, last saved epoch %d version %d (or its content differs)",
			got.Epoch, got.Version, want.Epoch, want.Version)
	}
	return nil
}

// perUserEps is EXT11's per-user tolerance: the solver's norm sums member
// response-time shifts, so the absolute epsilon is perUserEps × users, and
// VerifyEquilibrium checks each class against perUserEps.
const perUserEps = 1e-6

// checkConverged verifies that a megascale result converged to a feasible
// profile of its system.
func checkConverged(cs *megascale.ClassSystem, res *megascale.Result) error {
	if !res.Converged {
		return fmt.Errorf("solve did not converge in %d rounds", res.Rounds)
	}
	if err := res.Profile.CheckFeasible(cs); err != nil {
		return fmt.Errorf("solved profile infeasible: %w", err)
	}
	return nil
}

// checkSolve verifies that a megascale result converged and is a
// perUserEps-Nash equilibrium of its system.
func checkSolve(cs *megascale.ClassSystem, res *megascale.Result) error {
	if err := checkConverged(cs, res); err != nil {
		return err
	}
	ok, dev, err := megascale.VerifyEquilibrium(cs, res.Profile, perUserEps)
	if err != nil {
		return fmt.Errorf("verify equilibrium: %w", err)
	}
	if !ok {
		return fmt.Errorf("profile is not a %g-Nash equilibrium: a user gains %g by deviating", perUserEps, dev)
	}
	return nil
}
