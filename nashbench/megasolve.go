package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"nashlb/internal/core"
	"nashlb/internal/megascale"
)

// megasolve: seeded, drifted instances of EXT11's headline shape (10,000
// machines cycling the Table-1 speeds 10, 20, 50 and 100 jobs/s, a million
// users in 200 classes, 70% utilization), each re-solved from scratch with
// megascale.Solve as the leader and the gateway do today. No HTTP: the
// megascale layer does all the work. Every result must converge to a
// feasible profile; the last one of each run is also certified with
// megascale.VerifyEquilibrium after measuring ends, because at this shape a
// certificate costs about twenty times the solve.
const (
	megaMachines = 10_000
	megaClasses  = 200
	megaUsers    = 1_000_000
	megaRho      = 0.7
	// megaDrift is the log-normal spread of each class's load between
	// instances; the total is held at megaRho.
	megaDrift = 0.05
	// megaSetupsPerInstance is the number of set-ups timed after each
	// instance.
	megaSetupsPerInstance = 8
)

// megaShape is EXT11's system before drift.
type megaShape struct {
	rates    []float64
	capacity float64
	// weight is each class's nominal aggregate rate, count its members.
	weight []float64
	count  []int
}

func newMegaShape() megaShape {
	speeds := []float64{10, 20, 50, 100}
	m := megaShape{rates: make([]float64, megaMachines)}
	for j := range m.rates {
		m.rates[j] = speeds[j%len(speeds)]
		m.capacity += m.rates[j]
	}
	var wsum float64
	for c := 0; c < megaClasses; c++ {
		w := 1 + 0.1*float64(c%7)
		m.weight = append(m.weight, w)
		wsum += w
		m.count = append(m.count, megaUsers/megaClasses)
	}
	for c := range m.weight {
		m.weight[c] *= megaRho * m.capacity / wsum
	}
	return m
}

// instance draws one drifted class population.
func (m megaShape) instance(r *rand.Rand) []megascale.Class {
	w := make([]float64, len(m.weight))
	var sum float64
	for c, base := range m.weight {
		w[c] = base * math.Exp(megaDrift*r.NormFloat64())
		sum += w[c]
	}
	cls := make([]megascale.Class, len(w))
	for c := range w {
		cls[c] = megascale.Class{Phi: w[c] * megaRho * m.capacity / sum / float64(m.count[c]), Count: m.count[c]}
	}
	return cls
}

// megaRun is the record of one instance.
type megaRun struct {
	latency, reequil, solve time.Duration
	rounds                  int
	solves, skips           int64
	stateBytes              int64
}

func runMegasolve(rc runConfig) (*result, error) {
	heap := startHeapSampler(5 * time.Millisecond)
	shape := newMegaShape()
	r := rand.New(rand.NewPCG(rc.seed, 0x5017e))
	res := &result{}

	// Set-up: building and validating the ClassSystem. A build takes tens of
	// microseconds, so a batch timed at one moment reads that moment's
	// noise; a batch is timed before solving and a few builds after every
	// instance, so the set-ups sample the whole run.
	var setups []float64
	build := func() error {
		cls := shape.instance(r)
		start := time.Now()
		if _, err := megascale.NewClassSystem(shape.rates, cls); err != nil {
			return fmt.Errorf("build class system: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		return nil
	}
	for i := 0; i < 101; i++ {
		if err := build(); err != nil {
			heap.finish()
			return nil, err
		}
	}

	origin := time.Now()
	var spans []span
	var lastRows [][]float64
	var lastCS *megascale.ClassSystem
	var lastOut *megascale.Result
	var id uint64
	// play re-solves instances until d has passed, recording spans into log
	// when it is non-nil.
	play := func(d time.Duration, log *[]span) []megaRun {
		var runs []megaRun
		for end := time.Now().Add(d); time.Now().Before(end); {
			id++
			cls := shape.instance(r)
			var run megaRun
			var cs *megascale.ClassSystem
			var out *megascale.Result
			t0 := time.Now()
			_, err := timed(log, origin, id, layerBuild, layerReequil, func() error {
				var err error
				cs, err = megascale.NewClassSystem(shape.rates, cls)
				return err
			})
			if err == nil {
				run.solve, err = timed(log, origin, id, layerSolve, layerReequil, func() error {
					var err error
					out, err = megascale.Solve(cs, megascale.Options{Init: core.InitProportional, Epsilon: perUserEps * megaUsers})
					return err
				})
			}
			if err == nil {
				err = checkConverged(cs, out)
			}
			res.attempted++
			if err != nil {
				res.failed++
				res.check(fmt.Errorf("instance %d: %w", id, err))
				continue
			}
			run.latency = time.Since(t0)
			_, _ = timed(log, origin, id, layerRoute, layerReequil, func() error {
				lastRows = routeRows(out.Profile)
				return nil
			})
			run.reequil = time.Since(t0)
			if log != nil {
				*log = append(*log, span{ID: id, Layer: layerReequil, Start: int64(t0.Sub(origin)), Dur: int64(run.reequil)})
			}
			run.rounds, run.solves, run.skips, run.stateBytes = out.Rounds, out.Solves, out.Skips, out.StateBytes
			runs = append(runs, run)
			lastCS, lastOut = cs, out
			for k := 0; k < megaSetupsPerInstance; k++ {
				res.check(build())
			}
		}
		return runs
	}

	if !rc.traced {
		runs := play(rc.dur(1), nil)
		peak := heap.finish()
		if len(runs) == 0 {
			return nil, fmt.Errorf("no instance completed in %.0f s", rc.seconds)
		}
		res.check(checkSolve(lastCS, lastOut))
		var lat, re, solve []float64
		var busy time.Duration
		for _, x := range runs {
			lat = append(lat, float64(x.latency)/1e6)
			re = append(re, float64(x.reequil)/1e6)
			solve = append(solve, x.solve.Seconds())
			busy += x.reequil
		}
		lat, re = sortedCopy(lat), sortedCopy(re)
		n := int64(len(runs))
		res.add(
			metric{name: "setup_s", unit: "s", value: median(setups), n: int64(len(setups))},
			metric{name: "goodput_rps", unit: "1/s", value: float64(n) / busy.Seconds(), n: n},
			metric{name: "latency_p50_ms", unit: "ms", value: quantile(lat, 0.5), n: n},
			metric{name: "reequil_p50_ms", unit: "ms", value: quantile(re, 0.5), n: n},
			metric{name: "solve_s", unit: "s", value: median(solve), n: n},
			metric{name: "peak_heap_mb", unit: "MiB", value: peak},
		)
		return res, nil
	}

	plain := play(rc.dur(0.5), nil)
	p0 := readProc()
	traced := play(rc.dur(0.5), &spans)
	pd := p0.to(readProc())
	heap.finish()
	if len(plain) == 0 || len(traced) == 0 || lastRows == nil {
		return nil, fmt.Errorf("no instance completed in %.0f s", rc.seconds)
	}
	res.check(checkSolve(lastCS, lastOut))
	lm := newLayerMetrics()
	n := int64(len(traced))
	var solveMs, rounds, solves, skips, state, lat, re []float64
	var sumSolves, sumSkips int64
	for _, x := range traced {
		lat = append(lat, float64(x.latency)/1e6)
		re = append(re, float64(x.reequil)/1e6)
		solveMs = append(solveMs, float64(x.solve)/1e6)
		rounds = append(rounds, float64(x.rounds))
		solves = append(solves, float64(x.solves))
		skips = append(skips, float64(x.skips))
		state = append(state, float64(x.stateBytes)/(1<<20))
		sumSolves += x.solves
		sumSkips += x.skips
	}
	lm.set("client.sent", float64(res.attempted), res.attempted)
	lat = sortedCopy(lat)
	lm.set("client.latency_p90_ms", quantile(lat, 0.9), n)
	lm.set("client.latency_p99_ms", quantile(lat, 0.99), n)
	lm.set("fleet.reequil_p90_ms", quantile(sortedCopy(re), 0.9), n)
	pickNs, err := measurePick(lastRows, rc.seed, &spans, origin)
	if err != nil {
		return nil, err
	}
	lm.set("route.pick_ns", pickNs, 200*sideBatch)
	lm.set("megascale.solve_ms", median(solveMs), n)
	lm.set("megascale.rounds", median(rounds), n)
	lm.set("megascale.solves", median(solves), n)
	lm.set("megascale.skips", median(skips), n)
	if sumSolves+sumSkips > 0 {
		lm.set("megascale.skip_ratio", float64(sumSkips)/float64(sumSolves+sumSkips), n)
	}
	lm.set("megascale.state_mb", median(state), n)
	for _, m := range procMetrics(pd, n) {
		lm.set(m.name, m.value, m.n)
	}
	meanOf := func(runs []megaRun) float64 {
		var s float64
		for _, x := range runs {
			s += float64(x.latency)
		}
		return s / float64(len(runs))
	}
	lm.set("trace.overhead_frac", meanOf(traced)/meanOf(plain)-1, n)
	// The residual is the share of the re-solve no build, solve or route
	// span explains.
	self := selfTimes(spans)
	var rootSelf, root time.Duration
	for _, d := range self[layerReequil] {
		rootSelf += d
	}
	for _, d := range durations(spans, layerReequil) {
		root += d
	}
	lm.set("trace.residual_frac", float64(rootSelf)/float64(root), n)
	path, err := writeSpans(rc.out+"/trace", "megasolve.jsonl", spans)
	if err != nil {
		return nil, err
	}
	fmt.Printf("megasolve trace: %d spans in %s\n", len(spans), path)
	res.add(lm.list()...)
	return res, nil
}

// routeRows turns the solved class profile into the routing rows a gateway
// samples from: each class's fractions over the machines it uses.
func routeRows(p *megascale.ClassProfile) [][]float64 {
	rows := make([][]float64, p.Rows())
	for c := range rows {
		_, vals := p.Row(c)
		rows[c] = append([]float64(nil), vals...)
	}
	return rows
}
