package main

import (
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"nashlb/internal/core"
	"nashlb/internal/fleet"
	"nashlb/internal/game"
	"nashlb/internal/megascale"
)

// Each check gets an input that violates it and must fail, and a correct
// input that must pass.

func TestParseSubmit(t *testing.T) {
	good := `{"user":3,"backend":1,"service_s":0.001,"elapsed_s":0.002}`
	bad := map[string]string{
		"not json":      `oops`,
		"unknown field": `{"user":3,"backend":1,"service_s":0.001,"elapsed_s":0.002,"extra":1}`,
		"wrong user":    `{"user":4,"backend":1,"service_s":0.001,"elapsed_s":0.002}`,
		"bad backend":   `{"user":3,"backend":-1,"service_s":0.001,"elapsed_s":0.002}`,
		"bad service":   `{"user":3,"backend":1,"service_s":-1,"elapsed_s":0.002}`,
	}
	s := reqSample{user: 3, status: http.StatusOK, backend: -1}
	if err := parseSubmit([]byte(good), &s); err != nil || s.backend != 1 || s.elapsed != 0.002 {
		t.Fatalf("good body: err %v, sample %+v", err, s)
	}
	for name, body := range bad {
		s := reqSample{user: 3, status: http.StatusOK, backend: -1}
		if err := parseSubmit([]byte(body), &s); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
}

// phaseOf builds a phase whose requests were all sent at 1ms and answered
// at 2ms after t0.
func phaseOf(t0 time.Time, users []int32, backends []int32) *phaseResult {
	p := &phaseResult{start: t0}
	for i := range users {
		p.samples = append(p.samples, reqSample{
			intended: time.Millisecond, sent: time.Millisecond, done: 2 * time.Millisecond,
			user: users[i], status: http.StatusOK, backend: backends[i],
		})
	}
	return p
}

func TestCheckSupport(t *testing.T) {
	t0 := time.Now()
	hist := []tableRecord{{rows: [][]float64{{1, 0}, {0, 1}}}}
	classOf := []int{0, 1}
	if err := checkSupport(phaseOf(t0, []int32{0, 1}, []int32{0, 1}), hist, classOf); err != nil {
		t.Fatalf("in-support requests rejected: %v", err)
	}
	if err := checkSupport(phaseOf(t0, []int32{0}, []int32{1}), hist, classOf); err == nil {
		t.Fatal("backend outside the row's support accepted")
	}
	// A table swapped in while the request was in flight may have routed it.
	swap := append(hist, tableRecord{
		rows: [][]float64{{0, 1}, {0, 1}}, from: t0.Add(1500 * time.Microsecond), installed: t0.Add(1600 * time.Microsecond),
	})
	if err := checkSupport(phaseOf(t0, []int32{0}, []int32{1}), swap, classOf); err != nil {
		t.Fatalf("request routed by a table installed in flight rejected: %v", err)
	}
	// A table installed after the answer cannot have routed it.
	late := append(hist, tableRecord{
		rows: [][]float64{{0, 1}, {0, 1}}, from: t0.Add(5 * time.Millisecond), installed: t0.Add(6 * time.Millisecond),
	})
	if err := checkSupport(phaseOf(t0, []int32{0}, []int32{1}), late, classOf); err == nil {
		t.Fatal("request credited to a table installed after its answer")
	}
}

func TestCheckSplit(t *testing.T) {
	t0 := time.Now()
	hist := []tableRecord{{rows: [][]float64{{0.5, 0.5}}}}
	users := make([]int32, 1000)
	even, skewed := make([]int32, 1000), make([]int32, 1000)
	for i := range even {
		even[i] = int32(i % 2)
	}
	if err := checkSplit(phaseOf(t0, users, even), hist, []int{0}, 2); err != nil {
		t.Fatalf("even split of a 50/50 row rejected: %v", err)
	}
	if err := checkSplit(phaseOf(t0, users, skewed), hist, []int{0}, 2); err == nil {
		t.Fatal("all requests on one backend of a 50/50 row accepted")
	}
}

func TestCheckGatewayCounts(t *testing.T) {
	p := phaseOf(time.Now(), []int32{0, 0, 0}, []int32{0, 1, 1})
	if err := checkGatewayCounts([]*phaseResult{p}, []int64{5, 5}, []int64{6, 7}); err != nil {
		t.Fatalf("matching counters rejected: %v", err)
	}
	if err := checkGatewayCounts([]*phaseResult{p}, []int64{5, 5}, []int64{6, 8}); err == nil {
		t.Fatal("gateway counting a request the client never saw accepted")
	}
}

func TestCheckDenied(t *testing.T) {
	if err := checkDenied(0); err != nil {
		t.Fatal(err)
	}
	if err := checkDenied(1); err == nil {
		t.Fatal("a denied request accepted")
	}
}

func TestCheckReroutes(t *testing.T) {
	if err := checkReroutes(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string][3]int64{"reequilibration": {1, 0, 0}, "rebalance": {0, 1, 0}, "weight report": {0, 0, 1}} {
		if err := checkReroutes(d[0], d[1], d[2]); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckInstalls(t *testing.T) {
	ok := []tableRecord{
		{epoch: 1, version: 1, fence: [2]uint64{1, 1}},
		{epoch: 1, version: 2, fence: [2]uint64{1, 2}},
		{epoch: 2, version: 1, fence: [2]uint64{2, 1}},
	}
	if err := checkInstalls(ok); err != nil {
		t.Fatalf("ordered installs rejected: %v", err)
	}
	refused := append([]tableRecord(nil), ok...)
	refused[1].err = errors.New("stale")
	fence := append([]tableRecord(nil), ok...)
	fence[2].fence = [2]uint64{1, 2}
	order := []tableRecord{ok[1], ok[0]}
	for name, hist := range map[string][]tableRecord{"refused": refused, "fence": fence, "order": order} {
		if err := checkInstalls(hist); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckWAL(t *testing.T) {
	dir := t.TempDir()
	wal, _, err := fleet.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := func(version uint64, row game.Strategy) fleet.Snapshot {
		return fleet.Snapshot{Gen: 1, GrantGen: 1, Epoch: 1, Version: version, Active: []bool{true, true},
			Profile: game.Profile{row}, AdmitFrac: 1}
	}
	first, last := snap(1, game.Strategy{1, 0}), snap(2, game.Strategy{0.5, 0.5})
	if err := checkWAL(t.TempDir(), last); err == nil {
		t.Fatal("empty WAL accepted")
	}
	for _, s := range []fleet.Snapshot{first, last} {
		if err := wal.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkWAL(dir, last); err != nil {
		t.Fatalf("last snapshot rejected: %v", err)
	}
	if err := checkWAL(dir, first); err == nil {
		t.Fatal("WAL holding a later snapshot accepted as the first")
	}
	other := last
	other.Profile = game.Profile{{0.25, 0.75}}
	if err := checkWAL(dir, other); err == nil {
		t.Fatal("WAL with a different profile accepted")
	}
}

func TestCheckSolve(t *testing.T) {
	cs, err := megascale.NewClassSystem([]float64{10, 20, 50, 100}, []megascale.Class{
		{Phi: 2, Count: 20}, {Phi: 5, Count: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := megascale.Solve(cs, megascale.Options{Init: core.InitProportional, Epsilon: perUserEps * float64(cs.Users())})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSolve(cs, res); err != nil {
		t.Fatalf("converged equilibrium rejected: %v", err)
	}
	unconverged := *res
	unconverged.Converged = false
	if err := checkSolve(cs, &unconverged); err == nil {
		t.Fatal("unconverged result accepted")
	}
	// The proportional profile is feasible but not an equilibrium here.
	notNash := *res
	notNash.Profile = megascale.ProportionalClassProfile(cs)
	if err := checkConverged(cs, &notNash); err != nil {
		t.Fatalf("proportional profile should be feasible: %v", err)
	}
	if err := checkSolve(cs, &notNash); err == nil || !strings.Contains(err.Error(), "equilibrium") {
		t.Fatalf("non-equilibrium profile: got %v", err)
	}
}

func TestComplete(t *testing.T) {
	res := &result{}
	for _, e := range endToEnd {
		res.add(metric{name: e.name, unit: e.unit, value: 1})
	}
	if err := complete(res, false); err != nil {
		t.Fatalf("full report rejected: %v", err)
	}
	if err := complete(res, true); err == nil {
		t.Fatal("end-to-end report accepted as per-layer")
	}
	missing := &result{metrics: res.metrics[1:]}
	if err := complete(missing, false); err == nil {
		t.Fatal("report missing a metric accepted")
	}
	wrongUnit := &result{metrics: append([]metric(nil), res.metrics...)}
	wrongUnit.metrics[0].unit = "ms"
	if err := complete(wrongUnit, false); err == nil {
		t.Fatal("report with a wrong unit accepted")
	}
}
