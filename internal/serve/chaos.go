package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"nashlb/internal/rng"
)

// ChaosPhase is one segment of a ChaosProxy's fault schedule. Phases are
// sorted by Start (offset from proxy Start); the last phase whose Start has
// passed is active. The zero phase is perfectly healthy pass-through.
//
// The proxy applies the active phase to every work-hop frame it relays, job
// and status frames alike. A work-hop upgrade itself meets only Down and
// Blackhole.
type ChaosPhase struct {
	// Start is when this phase begins, measured from ChaosProxy.Start.
	Start time.Duration
	// ErrorRate is the probability an incoming frame is answered with an
	// injected failure (a failed reply frame) instead of being relayed
	// (seeded draw, reproducible).
	ErrorRate float64
	// Delay is added before relaying each frame (tail-latency injection).
	Delay time.Duration
	// Blackhole holds every upgrade or frame open without answering until
	// the client gives up — the "accepts connections but never answers"
	// failure.
	Blackhole bool
	// Down kills the connection of each upgrade or frame abruptly (no
	// answer at all) — the closest a live listener gets to a crashed
	// process.
	Down bool
}

// ChaosProxyConfig describes a work-hop fault-injection proxy.
type ChaosProxyConfig struct {
	// Target is the base URL of the real backend being fronted.
	Target string
	// Seed roots the injection stream: the same seed and request order
	// reproduce the same fault pattern exactly.
	Seed uint64
	// Schedule holds the fault phases in Start order. Empty means healthy
	// forever (a plain proxy).
	Schedule []ChaosPhase
	// Addr is the listen address ("127.0.0.1:0" when empty).
	Addr string
}

// ChaosProxy sits between the gateway and one backend and injects faults on
// a deterministic schedule: injected failures, added delay, black holes,
// and hard connection drops. It relays upgraded work-hop connections frame
// by frame and refuses any other request with 426, as a backend's /work
// does. It is the serving-layer analogue of the dist-layer chaos transport
// — frame faults instead of message faults — and is what the self-healing
// e2e tests drive: every fault the health layer must survive can be
// scripted, seeded, and replayed.
type ChaosProxy struct {
	cfg ChaosProxyConfig

	ln    net.Listener
	srv   *http.Server
	wg    sync.WaitGroup
	start time.Time
	quit  chan struct{} // closed by Close: ends relayed delays
	conns connSet       // relayed work-hop connections

	target workTarget // where the work-hop relay dials

	mu     sync.Mutex
	stream *rng.Stream

	injected  int64 // injected failures (failed frames)
	dropped   int64 // connections killed (Down)
	blackhole int64 // upgrades and frames held (Blackhole)
	proxied   int64 // frames passed through
}

// NewChaosProxy validates the configuration and returns an unstarted proxy.
func NewChaosProxy(cfg ChaosProxyConfig) (*ChaosProxy, error) {
	if cfg.Target == "" {
		return nil, errors.New("serve: chaos proxy needs a target")
	}
	for i, ph := range cfg.Schedule {
		if ph.ErrorRate < 0 || ph.ErrorRate > 1 {
			return nil, fmt.Errorf("serve: chaos phase %d: error rate %g outside [0,1]", i, ph.ErrorRate)
		}
		if i > 0 && ph.Start < cfg.Schedule[i-1].Start {
			return nil, fmt.Errorf("serve: chaos phase %d starts before phase %d", i, i-1)
		}
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	target, err := parseWorkTarget(cfg.Target)
	if err != nil {
		return nil, err
	}
	return &ChaosProxy{
		cfg:    cfg,
		target: target,
		quit:   make(chan struct{}),
		stream: rng.NewSource(cfg.Seed).Stream("chaos/http"),
	}, nil
}

// Start binds the listener and begins proxying. The schedule clock starts
// now.
func (p *ChaosProxy) Start() error {
	if p.ln != nil {
		return errors.New("serve: chaos proxy already started")
	}
	ln, err := net.Listen("tcp", p.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: chaos proxy listen: %w", err)
	}
	p.ln = ln
	p.start = time.Now()
	p.srv = &http.Server{Handler: http.HandlerFunc(p.handle)}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		_ = p.srv.Serve(ln)
	}()
	return nil
}

// Addr returns the bound address (empty before Start).
func (p *ChaosProxy) Addr() string {
	if p.ln == nil {
		return ""
	}
	return p.ln.Addr().String()
}

// URL returns the proxy's base URL — what the gateway should be pointed at.
func (p *ChaosProxy) URL() string {
	if p.ln == nil {
		return ""
	}
	return "http://" + p.Addr()
}

// Counts reports the proxy's tallies: injected failures, killed
// connections, black-holed upgrades and frames, and clean pass-throughs.
func (p *ChaosProxy) Counts() (injected, dropped, blackholed, proxied int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected, p.dropped, p.blackhole, p.proxied
}

// phase returns the active schedule entry (zero value when none started).
func (p *ChaosProxy) phase() ChaosPhase {
	elapsed := time.Since(p.start)
	var active ChaosPhase
	for _, ph := range p.cfg.Schedule {
		if ph.Start <= elapsed {
			active = ph
		} else {
			break
		}
	}
	return active
}

func (p *ChaosProxy) handle(w http.ResponseWriter, r *http.Request) {
	ph := p.phase()
	switch {
	case ph.Down:
		p.tally(&p.dropped)
		// Kill the connection without an HTTP answer: the client sees a
		// transport error, exactly like a crashed process.
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic(http.ErrAbortHandler)
	case ph.Blackhole:
		p.tally(&p.blackhole)
		<-r.Context().Done() // hold until the client gives up
		return
	case !wantsWork(r):
		refuseWork(w)
		return
	}
	p.relay(w, r)
}

// relay opens a work-hop connection to the target, upgrades the client's
// connection and relays its frames. A target that refuses the upgrade is
// reported to the client as 502.
func (p *ChaosProxy) relay(w http.ResponseWriter, r *http.Request) {
	up, err := p.target.dial(r.Context(), time.Now().Add(5*time.Second))
	if err != nil {
		http.Error(w, fmt.Sprintf("chaos proxy upstream: %v", err), http.StatusBadGateway)
		return
	}
	conn, br, err := switchToWork(w)
	if err != nil {
		up.Close()
		return
	}
	p.conns.serve(conn, func() {
		defer up.Close()
		p.relayFrames(conn, br, up)
	})
}

// relayFrames applies the active phase to each request frame: Down closes
// the connection unanswered, Blackhole holds it until the client gives up,
// an injected failure is answered with a failed reply, and everything else
// goes to the target after the phase's delay. An upstream failure, or a
// frame of a kind this build does not speak, closes the client's
// connection.
func (p *ChaosProxy) relayFrames(client net.Conn, r *bufio.Reader, up net.Conn) {
	var frame [replyFrameLen]byte
	for {
		if _, err := io.ReadFull(r, frame[:requestFrameLen]); err != nil {
			return
		}
		id, _, err := decodeRequest(frame[:requestFrameLen])
		if err != nil {
			return
		}
		ph := p.phase()
		switch {
		case ph.Down:
			p.tally(&p.dropped)
			return
		case ph.Blackhole:
			p.tally(&p.blackhole)
			_, _ = io.Copy(io.Discard, r) // hold until the client gives up
			return
		}
		if p.inject(ph) {
			encodeReply(frame[:], workReply{ID: id, Status: statusFailed})
		} else {
			if !p.delay(ph) {
				return
			}
			if _, err := up.Write(frame[:requestFrameLen]); err != nil {
				return
			}
			if _, err := io.ReadFull(up, frame[:]); err != nil {
				return
			}
			p.tally(&p.proxied)
		}
		if _, err := client.Write(frame[:]); err != nil {
			return
		}
	}
}

// inject draws whether the phase's error rate fails this frame.
func (p *ChaosProxy) inject(ph ChaosPhase) bool {
	if ph.ErrorRate <= 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	inject := p.stream.Float64() < ph.ErrorRate
	if inject {
		p.injected++
	}
	return inject
}

// delay waits out the phase's delay; false when Close came first.
func (p *ChaosProxy) delay(ph ChaosPhase) bool {
	if ph.Delay <= 0 {
		return true
	}
	t := time.NewTimer(ph.Delay)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.quit:
		return false
	}
}

func (p *ChaosProxy) tally(n *int64) {
	p.mu.Lock()
	*n++
	p.mu.Unlock()
}

// Close stops the proxy.
func (p *ChaosProxy) Close() error {
	if p.srv == nil {
		return nil
	}
	close(p.quit)
	err := p.srv.Close() // abrupt: black-holed upgrades must not block Shutdown
	p.conns.shut(func(c net.Conn) { c.Close() })
	p.wg.Wait()
	p.srv = nil
	return err
}

// Crasher wraps a Backend so it can be killed and revived at a fixed
// address — process-death chaos for the self-healing tests. After Crash the
// port refuses connections entirely; Restart brings a fresh backend (same
// config, same address, empty queue) back up, like a supervisor restarting
// a crashed worker.
type Crasher struct {
	cfg BackendConfig

	mu sync.Mutex
	b  *Backend
}

// NewCrasher starts the backend and pins its concrete address so restarts
// land on the same port.
func NewCrasher(cfg BackendConfig) (*Crasher, error) {
	b, err := NewBackend(cfg)
	if err != nil {
		return nil, err
	}
	if err := b.Start(); err != nil {
		return nil, err
	}
	cfg.Addr = b.Addr()
	return &Crasher{cfg: cfg, b: b}, nil
}

// URL returns the fixed base URL (stable across crash/restart cycles).
func (c *Crasher) URL() string { return "http://" + c.cfg.Addr }

// Backend returns the live backend, or nil while crashed.
func (c *Crasher) Backend() *Backend {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.b
}

// Crash kills the backend; the address goes dark until Restart.
func (c *Crasher) Crash() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.b == nil {
		return nil
	}
	err := c.b.Close()
	c.b = nil
	return err
}

// Restart revives the backend on the original address with a fresh queue.
func (c *Crasher) Restart() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.b != nil {
		return nil
	}
	b, err := NewBackend(c.cfg)
	if err != nil {
		return err
	}
	if err := b.Start(); err != nil {
		return err
	}
	c.b = b
	return nil
}

// Close tears the crasher down for good.
func (c *Crasher) Close() error {
	return c.Crash()
}
