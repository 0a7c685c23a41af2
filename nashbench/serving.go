package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nashlb/internal/core"
	"nashlb/internal/fleet"
	"nashlb/internal/game"
	"nashlb/internal/megascale"
	"nashlb/internal/rng"
	"nashlb/internal/serve"
)

// stackConfig describes one in-process serving stack: backends, the user
// population in classes of identical users, and the gateway's settings.
type stackConfig struct {
	rates []float64
	// classPhi is each class's per-member arrival rate, classCount its size.
	classPhi   []float64
	classCount []int
	seed       uint64
	// fill and burst size the gateway's token bucket.
	fill, burst float64
	// probe is the health-probe period (nashgate's default is 250ms).
	probe time.Duration
	// managed puts the gateway in managed mode: the benchmark's leader
	// installs every table.
	managed bool
}

// population lays the users out class by class.
func (c stackConfig) population() (classStart, classOf []int, arrivals []float64) {
	classStart = []int{0}
	for k, n := range c.classCount {
		for i := 0; i < n; i++ {
			classOf = append(classOf, k)
			arrivals = append(arrivals, c.classPhi[k])
		}
		classStart = append(classStart, len(classOf))
	}
	return classStart, classOf, arrivals
}

// stack is a running serving stack.
type stack struct {
	cfg        stackConfig
	backends   []*serve.Backend
	gw         *serve.Gateway
	classStart []int
	classOf    []int
	arrivals   []float64
	profile    game.Profile
	// weightReports counts managed-mode OnWeights callbacks (breaker
	// changes the gateway asked the control plane to act on).
	weightReports atomic.Int64
}

// startStack builds the stack through the public constructors: backends,
// the initial Nash solve, and a started gateway routing by it.
func startStack(cfg stackConfig) (*stack, error) {
	st := &stack{cfg: cfg}
	st.classStart, st.classOf, st.arrivals = cfg.population()
	urls := make([]string, len(cfg.rates))
	for j, mu := range cfg.rates {
		b, err := serve.NewBackend(serve.BackendConfig{Rate: mu, Seed: cfg.seed*1000 + uint64(j) + 1})
		if err == nil {
			err = b.Start()
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("backend %d: %w", j, err)
		}
		st.backends = append(st.backends, b)
		urls[j] = b.URL()
	}
	res, err := megascale.SolveSystem(&game.System{Rates: cfg.rates, Arrivals: st.arrivals}, core.Options{Init: core.InitProportional})
	if err == nil && !res.Converged {
		err = errors.New("initial solve did not converge")
	}
	if err != nil {
		st.close()
		return nil, fmt.Errorf("initial solve: %w", err)
	}
	st.profile = res.Profile
	gcfg := serve.GatewayConfig{
		Backends:   urls,
		Rates:      cfg.rates,
		Arrivals:   st.arrivals,
		Profile:    res.Profile,
		Seed:       cfg.seed,
		FillRate:   cfg.fill,
		Burst:      cfg.burst,
		ProbeEvery: cfg.probe,
	}
	if cfg.managed {
		gcfg.OnWeights = func([]float64) { st.weightReports.Add(1) }
	}
	gw, err := serve.NewGateway(gcfg)
	if err == nil {
		err = gw.Start()
	}
	if err != nil {
		st.close()
		return nil, fmt.Errorf("gateway: %w", err)
	}
	st.gw = gw
	return st, nil
}

// firstOK sends user 0's request until it is answered 200.
func firstOK(url string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(url + "/submit?user=0")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no 200 within 10s: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// setupSeeds is the number of distinct seeds one run's set-ups draw from.
const setupSeeds = 1 << 16

// timeSetup times set-up number i of a run, from construction to the first
// 200, and returns the running stack. Each set-up gets its own seed, so the
// first request's service draw differs between them and a median does not
// hang on one draw. Each starts from a collected heap, so a cycle the
// previous set-up left due does not land in its timing.
func timeSetup(cfg stackConfig, i int) (*stack, float64, error) {
	cfg.seed = cfg.seed*setupSeeds + uint64(i)
	runtime.GC()
	start := time.Now()
	st, err := startStack(cfg)
	if err != nil {
		return nil, 0, err
	}
	if err := firstOK(st.gw.URL()); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("first request: %w", err)
	}
	return st, time.Since(start).Seconds(), nil
}

// setupStacks times `times` set-ups and keeps the last stack running; the
// others are closed.
func setupStacks(cfg stackConfig, times int) (*stack, []float64, error) {
	var secs []float64
	for i := 0; i < times; i++ {
		st, d, err := timeSetup(cfg, i)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, d)
		if i == times-1 {
			return st, secs, nil
		}
		st.close()
	}
	return nil, nil, errors.New("no set-up requested")
}

func (st *stack) close() {
	if st.gw != nil {
		_ = st.gw.Close() // shutdown errors cannot change a finished run
	}
	for _, b := range st.backends {
		_ = b.Close()
	}
}

// classRows returns the routing row of each class in profile p.
func (st *stack) classRows(p game.Profile) [][]float64 {
	rows := make([][]float64, len(st.cfg.classCount))
	for c := range rows {
		rows[c] = append([]float64(nil), p[st.classStart[c]]...)
	}
	return rows
}

// backendTotals sums the backends' busy time and rejections.
func (st *stack) backendTotals() (busy time.Duration, rejected int64) {
	for _, b := range st.backends {
		busy += b.BusyTime()
		rejected += b.Rejected()
	}
	return busy, rejected
}

// leader plays the fleet leader against the stack's gateway. Each epoch it
// takes the current arrival estimates (drifted, when drift is set), solves
// the game with megascale.SolveSystem, encodes and decodes the table as the
// fleet wire does (fleet.EncodeTable, fleet.DecodeTable), installs it with
// Gateway.InstallTable and persists it with WAL.Save. The time from the new
// estimate to the persisted install is one re-equilibration.
type leader struct {
	st       *stack
	wal      *fleet.WAL
	machines []fleet.Machine
	active   []bool
	nominal  []float64
	// classPhi holds the current per-member estimates of each class.
	classPhi []float64
	drift    float64
	r        *rand.Rand
	epoch    uint64
	version  uint64
	origin   time.Time

	mu sync.Mutex // guards everything below against the final read
	// hist starts with the gateway's construction-time table.
	hist                                    []tableRecord
	last                                    fleet.Snapshot
	reequil, solve, encode, decode, install []time.Duration
	save                                    []time.Duration
	rounds                                  []float64
	tableBytes                              int
	spans                                   []span
	traced                                  bool
	err                                     error
}

// maxTableBytes keeps every table under half of the fleet's message cap.
const maxTableBytes = fleet.MaxMessage / 2

func newLeader(st *stack, dir string, drift float64, seed uint64, origin time.Time) (*leader, error) {
	wal, snap, err := fleet.OpenWAL(dir)
	if err != nil {
		return nil, err
	}
	if snap != nil {
		return nil, fmt.Errorf("WAL dir %s is not fresh", dir)
	}
	l := &leader{
		st:       st,
		wal:      wal,
		nominal:  st.cfg.classPhi,
		classPhi: append([]float64(nil), st.cfg.classPhi...),
		drift:    drift,
		r:        rand.New(rand.NewPCG(seed, 0x1ead)),
		epoch:    1,
		origin:   origin,
	}
	for j, b := range st.backends {
		l.machines = append(l.machines, fleet.Machine{URL: b.URL(), Rate: st.cfg.rates[j], Active: true})
		l.active = append(l.active, true)
	}
	l.hist = []tableRecord{{rows: st.classRows(st.profile)}}
	return l, nil
}

// stepDrift moves each class's estimate by a mean-reverting log-normal step
// and rescales the classes to the nominal total: the traffic mix churns,
// the aggregate load (which sets how much the slow machines get) does not.
func (l *leader) stepDrift() {
	const revert = 0.3
	var total, nominal float64
	for c := range l.classPhi {
		x := math.Log(l.classPhi[c] / l.nominal[c])
		x = (1-revert)*x + l.drift*l.r.NormFloat64()
		l.classPhi[c] = l.nominal[c] * math.Exp(x)
		count := float64(l.st.cfg.classCount[c])
		total += l.classPhi[c] * count
		nominal += l.nominal[c] * count
	}
	for c := range l.classPhi {
		l.classPhi[c] *= nominal / total
	}
}

// step runs one epoch. Errors are kept and stop later epochs.
func (l *leader) step() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	if err := l.stepLocked(); err != nil {
		l.err = fmt.Errorf("epoch %d version %d: %w", l.epoch, l.version, err)
	}
}

func (l *leader) stepLocked() error {
	var log *[]span
	if l.traced {
		log = &l.spans
	}
	id := uint64(1)<<62 | (l.version + 1)
	t0 := time.Now()
	if l.drift > 0 {
		l.stepDrift()
	}
	arrivals := make([]float64, len(l.st.classOf))
	for i, c := range l.st.classOf {
		arrivals[i] = l.classPhi[c]
	}
	l.version++
	var res *core.Result
	ds, err := timed(log, l.origin, id, layerSolve, layerReequil, func() error {
		var err error
		res, err = megascale.SolveSystem(&game.System{Rates: l.st.cfg.rates, Arrivals: arrivals}, core.Options{Init: core.InitProportional})
		if err == nil && !res.Converged {
			err = fmt.Errorf("solve did not converge in %d rounds", res.Rounds)
		}
		return err
	})
	if err != nil {
		return err
	}
	var data []byte
	de, err := timed(log, l.origin, id, layerEncode, layerReequil, func() error {
		var err error
		data, err = fleet.EncodeTable(fleet.Table{
			Epoch: l.epoch, Version: l.version, Leader: 0, Machines: l.machines,
			Arrivals: arrivals, AdmitFrac: 1, Profile: res.Profile,
		})
		return err
	})
	if err != nil {
		return err
	}
	if len(data) > maxTableBytes {
		return fmt.Errorf("table of %d bytes exceeds half the fleet message cap", len(data))
	}
	var tb fleet.Table
	dd, err := timed(log, l.origin, id, layerDecode, layerReequil, func() error {
		var err error
		tb, err = fleet.DecodeTable(data)
		return err
	})
	if err != nil {
		return err
	}
	rec := tableRecord{epoch: tb.Epoch, version: tb.Version, rows: l.st.classRows(tb.Profile), from: time.Now()}
	di, _ := timed(log, l.origin, id, layerInstall, layerReequil, func() error {
		rec.err = l.st.gw.InstallTable(serve.Table{Epoch: tb.Epoch, Version: tb.Version, Profile: tb.Profile, AdmitFrac: tb.AdmitFrac})
		return rec.err
	})
	rec.installed = time.Now()
	rec.fence[0], rec.fence[1] = l.st.gw.TableEpoch()
	l.hist = append(l.hist, rec)
	snap := fleet.Snapshot{
		Gen: tb.Epoch, GrantGen: tb.Epoch, Epoch: tb.Epoch, Version: tb.Version, Leader: tb.Leader,
		Active: l.active, Profile: tb.Profile, AdmitFrac: tb.AdmitFrac,
	}
	dw, err := timed(log, l.origin, id, layerSave, layerReequil, func() error { return l.wal.Save(snap) })
	if err != nil {
		return err
	}
	l.last = snap
	total := time.Since(t0)
	if log != nil {
		*log = append(*log, span{ID: id, Layer: layerReequil, Start: int64(t0.Sub(l.origin)), Dur: int64(total)})
	}
	l.reequil = append(l.reequil, total)
	l.solve = append(l.solve, ds)
	l.encode = append(l.encode, de)
	l.decode = append(l.decode, dd)
	l.install = append(l.install, di)
	l.save = append(l.save, dw)
	l.rounds = append(l.rounds, float64(res.Rounds))
	l.tableBytes = len(data)
	return nil
}

// setTraced switches span recording for the following epochs.
func (l *leader) setTraced(on bool) {
	l.mu.Lock()
	l.traced = on
	l.mu.Unlock()
}

// loop runs an epoch every period until stop is closed; done is closed when
// the loop has exited.
func (l *leader) loop(period time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			l.step()
		}
	}
}

// runLeader starts the leader loop and returns the function that stops it
// and waits for it to exit.
func runLeader(l *leader, period time.Duration) (stop func()) {
	stopc, done := make(chan struct{}), make(chan struct{})
	go l.loop(period, stopc, done)
	return func() {
		close(stopc)
		<-done
	}
}

// sideBatch is the number of calls timed together by the side-instance
// measurements: single calls are too short for the clock.
const sideBatch = 1000

// measureAdmit times ShardedTokenBucket.Admit on a fresh bucket with the
// workload's configuration and returns the median ns per call.
func measureAdmit(fill, burst float64, log *[]span, origin time.Time) float64 {
	b := serve.NewShardedTokenBucket(fill, burst)
	var per []float64
	for k := 0; k < 200; k++ {
		d, _ := timed(log, origin, uint64(2)<<62|uint64(k), layerAdmit, "", func() error {
			for i := 0; i < sideBatch; i++ {
				b.Admit()
			}
			return nil
		})
		per = append(per, float64(d)/sideBatch)
	}
	return median(per)
}

// measurePick times rng.Alias.Pick over alias samplers built from rows (the
// installed routing rows) and returns the median ns per call.
func measurePick(rows [][]float64, seed uint64, log *[]span, origin time.Time) (float64, error) {
	samplers := make([]*rng.Alias, len(rows))
	for c, row := range rows {
		a, err := rng.NewAlias(row)
		if err != nil {
			return 0, fmt.Errorf("alias for row %d: %w", c, err)
		}
		samplers[c] = a
	}
	stream := rng.New(seed)
	var per []float64
	sink := 0
	for k := 0; k < 200; k++ {
		a := samplers[k%len(samplers)]
		d, _ := timed(log, origin, uint64(3)<<62|uint64(k), layerPick, "", func() error {
			for i := 0; i < sideBatch; i++ {
				sink += a.Pick(stream)
			}
			return nil
		})
		per = append(per, float64(d)/sideBatch)
	}
	if sink < 0 {
		return 0, errors.New("unreachable")
	}
	return median(per), nil
}

// walDir returns a fresh directory for a workload's WAL under out.
func walDir(out, workload string) (string, error) {
	dir := fmt.Sprintf("%s/wal-%s-%d", out, workload, os.Getpid())
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, nil
}
