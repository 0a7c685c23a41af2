package main

import "time"

// mm1-churn: sixteen M/M/1 backends with the paper's Table-1 speed ratios
// (six of rate 1, five of 2, three of 5, two of 10, times 50 jobs/s, so
// service takes 2 to 20 ms), a thousand users in five arrival-rate classes
// whose aggregate estimate loads the machines to 60%, and a Poisson schedule
// at a fixed rate. The gateway runs in managed mode; every 200 ms the
// benchmark, as fleet leader, drifts the class mix and re-solves, encodes,
// decodes, installs and persists the table. Backend service dominates
// request latency, and table writes run beside routing reads.

// churnRate is the fixed offered rate in requests/s. The routing table is
// solved for the fleet's aggregate estimate; this gateway's own traffic is
// a share of it that two closed-loop connections carry with little queueing.
const churnRate = 120

// churnEpoch is the leader's re-equilibration period.
const churnEpoch = 200 * time.Millisecond

func churnConfig(seed uint64) stackConfig {
	var rates []float64
	for k, rel := range []float64{1, 2, 5, 10} {
		for i := 0; i < []int{6, 5, 3, 2}[k]; i++ {
			rates = append(rates, 50*rel)
		}
	}
	var capacity float64
	for _, mu := range rates {
		capacity += mu
	}
	counts := []int{400, 300, 150, 100, 50}
	shares := []float64{0.3, 0.25, 0.2, 0.15, 0.1}
	phi := make([]float64, len(counts))
	for k := range phi {
		phi[k] = 0.6 * capacity * shares[k] / float64(counts[k])
	}
	return stackConfig{
		rates:      rates,
		classPhi:   phi,
		classCount: counts,
		seed:       seed,
		fill:       1e7,
		burst:      1e6,
		probe:      250 * time.Millisecond,
		managed:    true,
	}
}

func runChurn(rc runConfig) (*result, error) {
	s, err := startServing("mm1-churn", rc, churnConfig(rc.seed), 31, 0.03, churnEpoch)
	if err != nil {
		return nil, err
	}
	defer s.close()
	s.play(phase{rate: churnRate, duration: 500 * time.Millisecond}) // warm-up
	if !rc.traced {
		fixed := s.play(phase{rate: churnRate, duration: rc.dur(1)})
		res := s.stop()
		ok := countOK(fixed.samples)
		s.addE2E(res, metric{name: "goodput_rps", unit: "1/s", value: float64(ok) / elapsedOf(fixed).Seconds(), n: ok}, fixed)
		return res, nil
	}
	// Traced: half the run untraced, half traced; the overhead is the
	// change in median latency.
	plain := s.play(phase{rate: churnRate, duration: rc.dur(0.5)})
	s.l.setTraced(true)
	p0 := readProc()
	fixed := s.play(phase{rate: churnRate, duration: rc.dur(0.5), traced: true})
	pd := p0.to(readProc())
	res := s.stop()
	overhead := quantile(latenciesMs(fixed.samples), 0.5)/quantile(latenciesMs(plain.samples), 0.5) - 1
	if err := s.addLayers(res, fixed, countOK(fixed.samples), pd, overhead, append([]span(nil), fixed.spans...)); err != nil {
		return nil, err
	}
	return res, nil
}
