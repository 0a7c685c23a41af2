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

// ChaosPhase is the fault a ChaosProxy applies, in force from the Set that
// installs it until the next Set replaces it. The zero phase is perfectly
// healthy pass-through.
//
// The proxy applies the phase to every work-hop frame it relays, job and
// status frames alike. A work-hop upgrade itself meets only Down and
// Blackhole.
type ChaosPhase struct {
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
	// Addr is the listen address ("127.0.0.1:0" when empty).
	Addr string
}

// ChaosProxy sits between the gateway and one backend and injects the
// current fault: injected failures, added delay, black holes, and hard
// connection drops (Down is a crashed backend, as the gateway sees it). It
// relays upgraded work-hop connections frame by frame and refuses any other
// request with 426, as a backend's /work does. It is the serving-layer
// analogue of the dist-layer chaos transport — frame faults instead of
// message faults — and is what the self-healing tests drive. It keeps no
// clock: whoever runs the scenario calls Set when a step is due, and the
// seeded draws make a run replayable.
type ChaosProxy struct {
	cfg ChaosProxyConfig

	ln    net.Listener
	srv   *http.Server
	wg    sync.WaitGroup
	quit  chan struct{} // closed by Close: ends relayed delays
	conns connSet       // relayed work-hop connections

	target workTarget // where the work-hop relay dials

	mu     sync.Mutex
	cur    ChaosPhase
	stream *rng.Stream

	injected  int64 // injected failures (failed frames)
	dropped   int64 // connections killed (Down)
	blackhole int64 // upgrades and frames held (Blackhole)
	proxied   int64 // frames passed through
}

// NewChaosProxy validates the configuration and returns an unstarted,
// healthy proxy.
func NewChaosProxy(cfg ChaosProxyConfig) (*ChaosProxy, error) {
	if cfg.Target == "" {
		return nil, errors.New("serve: chaos proxy needs a target")
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

// Start binds the listener and begins proxying.
func (p *ChaosProxy) Start() error {
	if p.ln != nil {
		return errors.New("serve: chaos proxy already started")
	}
	ln, err := net.Listen("tcp", p.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: chaos proxy listen: %w", err)
	}
	p.ln = ln
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

// Set replaces the current fault with ph, which takes effect on the next
// upgrade or frame. An error rate outside [0, 1] is rejected and leaves the
// current fault in force.
func (p *ChaosProxy) Set(ph ChaosPhase) error {
	if !(ph.ErrorRate >= 0 && ph.ErrorRate <= 1) {
		return fmt.Errorf("serve: chaos error rate %g outside [0,1]", ph.ErrorRate)
	}
	p.mu.Lock()
	p.cur = ph
	p.mu.Unlock()
	return nil
}

// phase returns the fault in force.
func (p *ChaosProxy) phase() ChaosPhase {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cur
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

// relayFrames applies the current phase to each request frame: Down closes
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
