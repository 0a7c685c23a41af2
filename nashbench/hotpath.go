package main

import "time"

// hot-path: four in-process backends whose service takes about a
// microsecond, a static Nash table over four user classes, default health
// probing, and admission enabled far above any offered rate. The gateway's
// net/http front, admission, route pick and forward hop do nearly all the
// work. The table stays unchanged while requests run; in stretches with no
// request in flight a leader re-confirms it (solve, encode, decode, install,
// persist), so that hot-path has a control path to time without putting
// that work beside the requests.

// hotRate is the fixed offered rate of the latency phase, in requests/s:
// about half of what two connections reach on a 2-vCPU machine. Far below
// that, the vCPUs idle between requests and the median reads the VM's
// wake-up latency, which drifted by up to 30% between runs at 1000 req/s;
// at half, the median request still rarely waits for a free connection.
const hotRate = 8000

// hotOverload is the offered rate of the goodput phase, far above capacity,
// so every connection sends back to back.
const hotOverload = 1e6

// hotReconfirm is the leader's period in the re-confirm stretches. The fleet
// re-pushes an unchanged table far less often; the period only sets how
// many epochs the stretches time.
const hotReconfirm = 5 * time.Millisecond

// hotSetups is the number of set-ups timed in each of two batches, when the
// run starts and after the request phases, so that no set-up work runs
// between the measured phases.
const hotSetups = 100

// Shares of the measured seconds: the goodput phase, the latency phase and
// the re-confirm stretches, taken together.
const (
	hotGoodputShare   = 0.35
	hotLatencyShare   = 0.55
	hotReconfirmShare = 0.1
)

func hotConfig(seed uint64) stackConfig {
	rates := []float64{1e6, 2e6, 5e6, 1e7}
	var capacity float64
	for _, mu := range rates {
		capacity += mu
	}
	// Four classes of two users each; class k sends k+1 shares of a total
	// arrival rate at 60% of capacity.
	phi := make([]float64, 4)
	for k := range phi {
		phi[k] = 0.6 * capacity * float64(k+1) / 10 / 2
	}
	return stackConfig{
		rates:      rates,
		classPhi:   phi,
		classCount: []int{2, 2, 2, 2},
		seed:       seed,
		fill:       1e8,
		burst:      1e6,
		probe:      250 * time.Millisecond,
	}
}

func runHotPath(rc runConfig) (*result, error) {
	s, err := startServing("hot-path", rc, hotConfig(rc.seed), hotSetups, 0, 0)
	if err != nil {
		return nil, err
	}
	defer s.close()
	s.play(phase{rate: hotOverload, duration: 500 * time.Millisecond}) // warm-up
	if !rc.traced {
		_ = s.idle(0)
		over := s.play(phase{rate: hotOverload, duration: rc.dur(hotGoodputShare)})
		_ = s.idle(0)
		fixed := s.play(phase{rate: hotRate, duration: rc.dur(hotLatencyShare)})
		if err := s.idle(hotSetups); err != nil {
			return nil, err
		}
		res := s.stop()
		ok := countOK(over.samples)
		s.addE2E(res, metric{name: "goodput_rps", unit: "1/s", value: float64(ok) / elapsedOf(over).Seconds(), n: ok}, fixed)
		return res, nil
	}
	// Traced: the same overload twice, untraced then traced, gives the
	// tracing overhead on goodput; proc.* is charged to the traced overload.
	s.l.setTraced(true)
	_ = s.idle(0)
	plain := s.play(phase{rate: hotOverload, duration: rc.dur(hotGoodputShare / 2)})
	p0 := readProc()
	over := s.play(phase{rate: hotOverload, duration: rc.dur(hotGoodputShare / 2), traced: true})
	pd := p0.to(readProc())
	_ = s.idle(0)
	fixed := s.play(phase{rate: hotRate, duration: rc.dur(hotLatencyShare), traced: true})
	if err := s.idle(hotSetups); err != nil {
		return nil, err
	}
	res := s.stop()
	n := countOK(over.samples)
	plainRate := float64(countOK(plain.samples)) / elapsedOf(plain).Seconds()
	overhead := plainRate/(float64(n)/elapsedOf(over).Seconds()) - 1
	spans := append(append([]span(nil), over.spans...), fixed.spans...)
	if err := s.addLayers(res, fixed, n, pd, overhead, spans); err != nil {
		return nil, err
	}
	return res, nil
}

// idle runs one of three stretches with no request in flight: before the
// goodput phase, between the two phases and after them. Each re-confirms
// the table for a third of the re-confirm share, so the epochs sample the
// whole run rather than one moment of it, and then times `setups` more
// set-ups. A stretch that times no set-up cannot fail.
func (s *servingRun) idle(setups int) error {
	s.leaderAlone(hotReconfirm, s.rc.dur(hotReconfirmShare/3))
	return s.moreSetups(setups)
}
