package main

import (
	"fmt"
	"os"
	"time"

	"nashlb/internal/serve"
)

// servingRun is one run of a serving workload: the stack, its leader and
// the generator, with the counters read around the measured phases.
type servingRun struct {
	name       string
	rc         runConfig
	cfg        stackConfig
	st         *stack
	l          *leader
	gen        *generator
	dir        string
	origin     time.Time
	heap       *heapSampler
	setups     []float64
	stopLeader func()
	seed       uint64
	phases     []*phaseResult

	before, after *serve.Snapshot
	busy0, busy1  time.Duration
	rej0, rej1    int64
	elapsed       time.Duration
	peak          float64
}

// startServing times the set-ups, keeps the last stack, and, when period is
// positive, starts the leader with an epoch every period beside the
// requests.
func startServing(name string, rc runConfig, cfg stackConfig, setups int, drift float64, period time.Duration) (*servingRun, error) {
	s := &servingRun{name: name, rc: rc, cfg: cfg, seed: rc.seed << 8, stopLeader: func() {}}
	s.heap = startHeapSampler(5 * time.Millisecond)
	st, secs, err := setupStacks(cfg, setups)
	if err != nil {
		s.heap.finish()
		return nil, err
	}
	s.st, s.setups = st, secs
	s.dir, err = walDir(rc.out, name)
	if err == nil {
		s.origin = time.Now()
		s.l, err = newLeader(st, s.dir, drift, rc.seed, s.origin)
	}
	if err != nil {
		s.heap.finish()
		s.close()
		return nil, err
	}
	weights := make([]float64, len(cfg.classPhi))
	for k, phi := range cfg.classPhi {
		weights[k] = phi * float64(cfg.classCount[k])
	}
	s.gen = newGenerator(st.gw.URL(), st.classStart, weights, rc.conns)
	s.before = st.gw.Metrics()
	s.busy0, s.rej0 = st.backendTotals()
	if period > 0 {
		s.stopLeader = runLeader(s.l, period)
	}
	return s, nil
}

// leaderAlone runs the leader with an epoch every period for d while no
// request is in flight, so its epochs are timed without sharing the
// machine with the requests, and the requests never with them.
func (s *servingRun) leaderAlone(period, d time.Duration) {
	stop := runLeader(s.l, period)
	time.Sleep(d)
	stop()
}

// moreSetups times n more set-ups of the run's stack configuration while no
// request is in flight, closing each; the live stack is left alone.
func (s *servingRun) moreSetups(n int) error {
	for i := 0; i < n; i++ {
		st, d, err := timeSetup(s.cfg, len(s.setups))
		if err != nil {
			return err
		}
		st.close()
		s.setups = append(s.setups, d)
	}
	return nil
}

// play runs one phase with the next seed of the run's sequence.
func (s *servingRun) play(ph phase) *phaseResult {
	s.seed++
	ph.seed = s.seed
	r := s.gen.run(ph)
	s.phases = append(s.phases, r)
	return r
}

// stop ends the measured part: it stops the leader, reads the counters and
// checks every output.
func (s *servingRun) stop() *result {
	s.stopLeader()
	s.after = s.st.gw.Metrics()
	s.busy1, s.rej1 = s.st.backendTotals()
	s.elapsed = time.Since(s.origin)
	s.peak = s.heap.finish()

	res := &result{}
	for _, p := range s.phases {
		res.attempted += int64(len(p.samples))
		res.failed += int64(len(p.samples)) - countOK(p.samples)
		for _, v := range p.violations {
			res.check(v)
		}
		res.check(checkSupport(p, s.l.hist, s.st.classOf))
		res.check(checkSplit(p, s.l.hist, s.st.classOf, len(s.cfg.rates)))
	}
	res.check(checkGatewayCounts(s.phases, s.before.BackendRequests, s.after.BackendRequests))
	res.check(checkDenied(s.after.Admission.Denied - s.before.Admission.Denied))
	res.check(checkReroutes(s.after.Reequilibrations-s.before.Reequilibrations,
		s.after.Rebalances-s.before.Rebalances, s.st.weightReports.Load()))
	res.check(s.l.err)
	if len(s.l.hist) < 2 {
		res.check(fmt.Errorf("the leader installed no table"))
	} else {
		res.check(checkInstalls(s.l.hist[1:]))
		res.check(checkWAL(s.dir, s.l.last))
	}
	return res
}

func (s *servingRun) close() {
	s.st.close()
	if s.dir != "" {
		_ = os.RemoveAll(s.dir) // scratch state under the build directory
	}
}

// addE2E adds the end-to-end metrics: goodput as measured by the caller,
// corrected latency of the fixed-rate phase, and the leader's figures.
func (s *servingRun) addE2E(res *result, goodput metric, fixed *phaseResult) {
	lat := scheduledLatenciesMs(fixed.samples)
	n := int64(len(lat))
	p50 := windowedQuantile(lat, 0.5)
	re := make([]float64, len(s.l.reequil))
	for i, d := range s.l.reequil {
		re[i] = float64(d) / 1e6
	}
	epochs := int64(len(re))
	res.add(
		metric{name: "setup_s", unit: "s", value: median(s.setups), n: int64(len(s.setups))},
		goodput,
		metric{name: "latency_p50_ms", unit: "ms", value: p50, n: n},
		metric{name: "reequil_p50_ms", unit: "ms", value: windowedQuantile(re, 0.5), n: epochs},
		metric{name: "solve_s", unit: "s", value: quantile(durationsMs(s.l.solve), 0.5) / 1e3, n: epochs},
		metric{name: "peak_heap_mb", unit: "MiB", value: s.peak},
	)
}

// addLayers adds the per-layer metrics of a traced run. fixed is the traced
// fixed-rate phase the request layers and the ledger come from; work and
// pd are the requests and runtime deltas of the phase proc.* is charged to;
// overhead is the caller's traced-versus-untraced comparison.
func (s *servingRun) addLayers(res *result, fixed *phaseResult, work int64, pd procDelta, overhead float64, spans []span) error {
	lm := newLayerMetrics()
	spans = append(spans, s.l.spans...)
	lm.set("client.lateness_p99_ms", quantile(latenessMs(fixed.samples), 0.99), int64(len(fixed.samples)))
	lat := scheduledLatenciesMs(fixed.samples)
	lm.set("client.latency_p90_ms", windowedQuantile(lat, 0.9), int64(len(lat)))
	lm.set("client.latency_p99_ms", windowedQuantile(lat, 0.99), int64(len(lat)))
	lm.set("client.sent", float64(res.attempted), res.attempted)
	self := selfTimes(fixed.spans)
	front, hop, svc := durationsMs(self[layerClient]), durationsMs(self[layerGateway]), durationsMs(self[layerBackend])
	lm.set("gateway.front_us_p50", 1e3*quantile(front, 0.5), int64(len(front)))
	lm.set("gateway.front_us_p99", 1e3*quantile(front, 0.99), int64(len(front)))
	admitNs := measureAdmit(s.cfg.fill, s.cfg.burst, &spans, s.origin)
	pickNs, err := measurePick(s.st.classRows(s.st.gw.Profile()), s.rc.seed, &spans, s.origin)
	if err != nil {
		return err
	}
	lm.set("admission.admit_ns", admitNs, 200*sideBatch)
	lm.set("route.pick_ns", pickNs, 200*sideBatch)
	lm.set("admission.denied", float64(s.after.Admission.Denied-s.before.Admission.Denied), 0)
	lm.set("admission.refills", float64(s.after.Admission.Refills-s.before.Admission.Refills), 0)
	var opened, reused, errs int64
	for j := range s.after.ConnOpened {
		opened += s.after.ConnOpened[j] - s.before.ConnOpened[j]
		reused += s.after.ConnReused[j] - s.before.ConnReused[j]
		errs += s.after.BackendErrors[j] - s.before.BackendErrors[j]
	}
	if opened+reused > 0 {
		lm.set("forward.conn_reuse_ratio", float64(reused)/float64(opened+reused), opened+reused)
	}
	lm.set("forward.retry_denied", float64(s.after.RetryDenied-s.before.RetryDenied), 0)
	lm.set("forward.backend_errors", float64(errs), 0)
	lm.set("forward.hop_us_p50", 1e3*quantile(hop, 0.5), int64(len(hop)))
	lm.set("forward.hop_us_p99", 1e3*quantile(hop, 0.99), int64(len(hop)))
	lm.set("backend.service_ms_p50", quantile(svc, 0.5), int64(len(svc)))
	lm.set("backend.util", float64(s.busy1-s.busy0)/float64(s.elapsed)/float64(len(s.cfg.rates)), 0)
	lm.set("backend.rejected", float64(s.rej1-s.rej0), 0)

	l := s.l
	epochs := int64(len(l.reequil))
	save := durationsMs(l.save)
	lm.set("table.install_us_p50", 1e3*quantile(durationsMs(l.install), 0.5), epochs)
	lm.set("table.installs", float64(s.after.TableInstalls-s.before.TableInstalls), 0)
	lm.set("wire.encode_ms", quantile(durationsMs(l.encode), 0.5), epochs)
	lm.set("wire.decode_ms", quantile(durationsMs(l.decode), 0.5), epochs)
	lm.set("wire.table_kb", float64(l.tableBytes)/1024, 0)
	lm.set("wal.save_ms_p50", quantile(save, 0.5), epochs)
	lm.set("wal.save_ms_p90", quantile(save, 0.9), epochs)
	lm.set("megascale.solve_ms", quantile(durationsMs(l.solve), 0.5), epochs)
	lm.set("megascale.rounds", median(l.rounds), epochs)
	re := make([]float64, len(l.reequil))
	for i, d := range l.reequil {
		re[i] = float64(d) / 1e6
	}
	lm.set("fleet.reequil_p90_ms", windowedQuantile(re, 0.9), epochs)

	for _, m := range procMetrics(pd, work) {
		lm.set(m.name, m.value, m.n)
	}
	lm.set("trace.overhead_frac", overhead, work)

	// The ledger: the mean client round trip split into the per-layer self
	// times. The side-instance admission and pick costs are carved out of
	// the front's self time; what no span explains is the residual (the
	// net/http server and client, and loopback).
	rtt := mean(durationsMs(durations(fixed.spans, layerClient)))
	fr, hp, sv := mean(front), mean(hop), mean(svc)
	adm, pick := admitNs/1e6, pickNs/1e6
	residual := fr - adm - pick
	lm.set("trace.residual_frac", residual/rtt, int64(len(front)))
	fmt.Printf("%s ledger (mean per request, us): client rtt %.3f = backend.service %.3f + forward.hop %.3f"+
		" + admission %.3f + route.pick %.3f + residual %.3f (%.1f%% of rtt explained by no layer span)\n",
		s.name, 1e3*rtt, 1e3*sv, 1e3*hp, 1e3*adm, 1e3*pick, 1e3*residual, 100*residual/rtt)
	path, err := writeSpans(s.rc.out+"/trace", s.name+".jsonl", spans)
	if err != nil {
		return err
	}
	fmt.Printf("%s trace: %d spans in %s\n", s.name, len(spans), path)
	res.add(lm.list()...)
	return nil
}

// elapsedOf is a phase's wall time, from its start to its last answer.
func elapsedOf(p *phaseResult) time.Duration {
	var last time.Duration
	for i := range p.samples {
		if d := p.samples[i].done; d > last {
			last = d
		}
	}
	return last
}

// durations returns the durations of the spans of one layer.
func durations(spans []span, layer string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Layer == layer {
			out = append(out, time.Duration(s.Dur))
		}
	}
	return out
}
