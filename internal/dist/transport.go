// Package dist implements the paper's NASH algorithm (Section 3) as an
// actual distributed protocol: the users form a logical ring, a token
// message carrying (round, accumulated norm) circulates, and the token
// holder recomputes its best response with OPTIMAL before forwarding.
//
// The ring link is abstracted behind Transport so the same node logic runs
// over in-process channels (tests, single-binary deployments) and TCP with a
// JSON-lines codec (cmd/nashd). The layer is built to survive faults, not
// just detect them: tokens carry generation numbers so a leader can re-inject
// a lost token (stale generations are discarded), Supervise ejects nodes that
// keep missing generations, Chaos injects seeded drop/delay/reorder/dup/crash
// faults for replicable chaos runs, and the TCP paths enforce deadlines, a
// max message size, and capped exponential backoff with jitter.
package dist

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"nashlb/internal/rng"
)

// Kind discriminates ring messages.
type Kind int

const (
	// Token is the working message: the holder updates its strategy.
	Token Kind = iota
	// Done signals termination; nodes forward it and exit.
	Done
)

// Message is the unit circulating the ring. It is JSON-encodable for the
// TCP transport.
type Message struct {
	Kind Kind `json:"kind"`
	// Round is the 1-based round number (one round = one full circulation).
	Round int `json:"round"`
	// Norm is the accumulated sum of |D_i' - D_i| along the circulation.
	Norm float64 `json:"norm"`
	// Aborted marks a Done that terminates without convergence.
	Aborted bool `json:"aborted,omitempty"`
	// Seq is a per-sender sequence number used for duplicate suppression.
	Seq uint64 `json:"seq"`
	// From identifies the sending node, scoping Seq so the ring can be
	// rewired (ejection, restart) without corrupting duplicate suppression.
	From int `json:"from"`
	// Epoch is the sender's restart incarnation; a higher epoch resets the
	// receiver's Seq high-water mark, letting a restarted node (whose Seq
	// counter starts over) rejoin the ring.
	Epoch uint64 `json:"epoch,omitempty"`
	// Gen is the token generation. The leader bumps it when it re-injects a
	// token after a stall, and every node discards messages from superseded
	// generations so a late-arriving old token cannot corrupt the norm.
	Gen uint64 `json:"gen,omitempty"`
}

// DefaultMaxMessage bounds one encoded ring frame (1 MiB) — far above any
// legitimate token, low enough that a garbage peer cannot force unbounded
// allocation.
const DefaultMaxMessage = 1 << 20

// ErrMessageTooLarge reports a frame exceeding the configured size bound.
var ErrMessageTooLarge = errors.New("dist: message exceeds size bound")

// encodeMessage renders m as one newline-terminated JSON frame, enforcing
// the size bound when max > 0.
func encodeMessage(m Message, max int) ([]byte, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	if max > 0 && len(b) >= max {
		return nil, fmt.Errorf("%w: %d bytes (max %d)", ErrMessageTooLarge, len(b), max)
	}
	return append(b, '\n'), nil
}

// decodeMessage parses one frame (without the trailing newline) and rejects
// structurally invalid messages instead of letting them into the protocol.
func decodeMessage(b []byte) (Message, error) {
	var m Message
	if err := json.Unmarshal(b, &m); err != nil {
		return Message{}, fmt.Errorf("dist: malformed message: %w", err)
	}
	if m.Kind != Token && m.Kind != Done {
		return Message{}, fmt.Errorf("dist: unknown message kind %d", m.Kind)
	}
	if m.Round < 0 || m.From < 0 {
		return Message{}, fmt.Errorf("dist: negative message field (round %d, from %d)", m.Round, m.From)
	}
	return m, nil
}

// Transport is one node's view of the ring: Send forwards to the successor,
// Recv blocks for the predecessor's message.
type Transport interface {
	Send(Message) error
	Recv() (Message, error)
	Close() error
}

// ---------------------------------------------------------------------------
// In-process channel ring
// ---------------------------------------------------------------------------

type chanTransport struct {
	out  chan<- Message
	in   <-chan Message
	once sync.Once
	done chan struct{}
}

// ChanRing wires m nodes into a ring over buffered channels and returns one
// transport per node. Closing any transport only detaches that node; the
// channels themselves are garbage collected with the ring.
func ChanRing(m int) []Transport {
	chans := make([]chan Message, m)
	for i := range chans {
		chans[i] = make(chan Message, 4)
	}
	ts := make([]Transport, m)
	for i := range ts {
		ts[i] = &chanTransport{
			out:  chans[(i+1)%m],
			in:   chans[i],
			done: make(chan struct{}),
		}
	}
	return ts
}

func (t *chanTransport) Send(m Message) error {
	select {
	case t.out <- m:
		return nil
	case <-t.done:
		return errors.New("dist: transport closed")
	}
}

func (t *chanTransport) Recv() (Message, error) {
	select {
	case m := <-t.in:
		return m, nil
	case <-t.done:
		return Message{}, errors.New("dist: transport closed")
	}
}

func (t *chanTransport) Close() error {
	t.once.Do(func() { close(t.done) })
	return nil
}

// ---------------------------------------------------------------------------
// TCP ring with JSON-lines codec
// ---------------------------------------------------------------------------

// TCPConfig hardens the TCP ring transport. The zero value selects sane
// defaults everywhere; fields exist so tests and deployments can tighten or
// relax individual bounds.
type TCPConfig struct {
	// DialTimeout bounds each connection attempt (2s when zero).
	DialTimeout time.Duration
	// WriteTimeout bounds each frame write (5s when zero) so one hung peer
	// cannot wedge the sender forever.
	WriteTimeout time.Duration
	// ReadTimeout bounds the wait for the next frame on an accepted
	// connection (2m when zero — generous, because a healthy ring can sit
	// idle between rounds; liveness at protocol granularity is Timeout's
	// job).
	ReadTimeout time.Duration
	// MaxMessage bounds one encoded frame (DefaultMaxMessage when zero).
	MaxMessage int
	// Retries is the Send retry budget (transport-specific default when
	// zero: 10 for TCPRing, 60 for NewTCPNode, whose successor may not have
	// started yet).
	Retries int
	// BackoffBase and BackoffMax shape the retry delays (2ms/250ms when
	// zero).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the retry jitter stream (fixed default when zero), keeping
	// reconnect schedules deterministic per successor address.
	Seed uint64
}

func (c TCPConfig) withDefaults(retries int) TCPConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 2 * time.Minute
	}
	if c.MaxMessage <= 0 {
		c.MaxMessage = DefaultMaxMessage
	}
	if c.Retries <= 0 {
		c.Retries = retries
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 2 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 0xbac0ff
	}
	return c
}

type tcpTransport struct {
	succAddr string
	cfg      TCPConfig
	ln       net.Listener

	mu      sync.Mutex // guards conn + backoff (Send side)
	conn    net.Conn
	backoff Backoff

	inMu   sync.Mutex // guards inConn/sc/closed (Recv vs Close)
	inConn net.Conn
	sc     *bufio.Scanner
	closed bool
}

func newTCPTransport(succAddr string, ln net.Listener, cfg TCPConfig) *tcpTransport {
	return &tcpTransport{
		succAddr: succAddr,
		ln:       ln,
		cfg:      cfg,
		backoff: Backoff{
			Base: cfg.BackoffBase,
			Max:  cfg.BackoffMax,
			R:    rng.NewSource(cfg.Seed).Stream(succAddr),
		},
	}
}

// TCPRing creates m loopback listeners and returns a transport per node;
// node i's Send dials node (i+1) mod m lazily (reconnecting on failure with
// capped exponential backoff), and Recv accepts the predecessor's connection.
// Call Close on every transport when done.
func TCPRing(m int) ([]Transport, error) { return TCPRingConfig(m, TCPConfig{}) }

// TCPRingConfig is TCPRing with explicit hardening limits.
func TCPRingConfig(m int, cfg TCPConfig) ([]Transport, error) {
	if m < 1 {
		return nil, errors.New("dist: ring needs at least one node")
	}
	cfg = cfg.withDefaults(10)
	listeners := make([]net.Listener, m)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("dist: listen: %w", err)
		}
		listeners[i] = ln
	}
	ts := make([]Transport, m)
	for i := range ts {
		ts[i] = newTCPTransport(listeners[(i+1)%m].Addr().String(), listeners[i], cfg)
	}
	return ts, nil
}

// NewTCPNode returns the transport of a single standalone ring node that
// listens for its predecessor on listenAddr and sends to its successor at
// nextAddr — the building block for multi-process deployments (cmd/nashd
// -mode node). Call Close when done.
func NewTCPNode(listenAddr, nextAddr string) (Transport, error) {
	return NewTCPNodeConfig(listenAddr, nextAddr, TCPConfig{})
}

// NewTCPNodeConfig is NewTCPNode with explicit hardening limits.
func NewTCPNodeConfig(listenAddr, nextAddr string, cfg TCPConfig) (Transport, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("dist: node listen on %s: %w", listenAddr, err)
	}
	// Standalone nodes get a larger retry budget: their successor process
	// may simply not have started yet.
	return newTCPTransport(nextAddr, ln, cfg.withDefaults(60)), nil
}

// NodeAddr reports the transport's listen address when it has one (TCP
// nodes); empty otherwise.
func NodeAddr(t Transport) string {
	if tt, ok := t.(*tcpTransport); ok {
		return tt.ln.Addr().String()
	}
	return ""
}

func (t *tcpTransport) Send(m Message) error {
	frame, err := encodeMessage(m, t.cfg.MaxMessage)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt <= t.cfg.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(t.backoff.Next())
		}
		if t.conn == nil {
			conn, err := net.DialTimeout("tcp", t.succAddr, t.cfg.DialTimeout)
			if err != nil {
				lastErr = err
				continue
			}
			t.conn = conn
		}
		t.conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
		if _, err := t.conn.Write(frame); err != nil {
			lastErr = err
			t.conn.Close()
			t.conn = nil
			continue
		}
		t.backoff.Reset()
		return nil
	}
	return fmt.Errorf("dist: send failed after retries: %w", lastErr)
}

func (t *tcpTransport) Recv() (Message, error) {
	for {
		t.inMu.Lock()
		if t.closed {
			t.inMu.Unlock()
			return Message{}, errors.New("dist: transport closed")
		}
		conn, sc := t.inConn, t.sc
		t.inMu.Unlock()
		if conn == nil {
			c, err := t.ln.Accept()
			if err != nil {
				return Message{}, fmt.Errorf("dist: accept: %w", err)
			}
			s := bufio.NewScanner(c)
			s.Buffer(make([]byte, 0, 512), t.cfg.MaxMessage)
			t.inMu.Lock()
			if t.closed {
				t.inMu.Unlock()
				c.Close()
				return Message{}, errors.New("dist: transport closed")
			}
			t.inConn, t.sc = c, s
			conn, sc = c, s
			t.inMu.Unlock()
		}
		conn.SetReadDeadline(time.Now().Add(t.cfg.ReadTimeout))
		if !sc.Scan() {
			// Peer reconnected, idled past the deadline, or overflowed the
			// frame bound: drop the connection and accept anew.
			t.dropIn(conn)
			continue
		}
		m, err := decodeMessage(sc.Bytes())
		if err != nil {
			// Poisoned stream; resynchronize on a fresh connection.
			t.dropIn(conn)
			continue
		}
		return m, nil
	}
}

func (t *tcpTransport) dropIn(conn net.Conn) {
	conn.Close()
	t.inMu.Lock()
	if t.inConn == conn {
		t.inConn, t.sc = nil, nil
	}
	t.inMu.Unlock()
}

func (t *tcpTransport) Close() error {
	t.mu.Lock()
	if t.conn != nil {
		t.conn.Close()
		t.conn = nil
	}
	t.mu.Unlock()
	t.inMu.Lock()
	t.closed = true
	if t.inConn != nil {
		t.inConn.Close()
		t.inConn, t.sc = nil, nil
	}
	t.inMu.Unlock()
	return t.ln.Close()
}

// ---------------------------------------------------------------------------
// Fault injection and duplicate suppression
// ---------------------------------------------------------------------------

// ErrRecvTimeout reports that no message arrived within the liveness
// deadline — the ring has stalled (a node crashed or a link broke).
var ErrRecvTimeout = errors.New("dist: receive timed out (ring stalled)")

// Timeout wraps a transport with a liveness guard: Recv fails with
// ErrRecvTimeout when no message arrives within D. At most one background
// receive runs at a time; after a timeout the receive keeps waiting and its
// result (a late message) is delivered by the next Recv call, so token
// recovery never loses a message that merely arrived late. Close releases
// the background receive by closing the inner transport, so nothing leaks.
type Timeout struct {
	Inner Transport
	D     time.Duration

	mu          sync.Mutex
	pending     chan recvResult
	done        chan struct{}
	outstanding bool
	closeOnce   sync.Once
}

type recvResult struct {
	m   Message
	err error
}

// Send implements Transport.
func (t *Timeout) Send(m Message) error { return t.Inner.Send(m) }

// Recv implements Transport with the deadline applied.
func (t *Timeout) Recv() (Message, error) {
	t.mu.Lock()
	if t.pending == nil {
		t.pending = make(chan recvResult, 1)
	}
	if t.done == nil {
		t.done = make(chan struct{})
	}
	if !t.outstanding {
		t.outstanding = true
		go t.pump()
	}
	pending, done := t.pending, t.done
	t.mu.Unlock()

	timer := time.NewTimer(t.D)
	defer timer.Stop()
	select {
	case r := <-pending:
		t.mu.Lock()
		t.outstanding = false
		t.mu.Unlock()
		return r.m, r.err
	case <-timer.C:
		return Message{}, fmt.Errorf("%w after %v", ErrRecvTimeout, t.D)
	case <-done:
		return Message{}, errors.New("dist: transport closed")
	}
}

// pump performs one inner receive. pending has capacity 1 and outstanding
// guarantees a single pump at a time, so the deposit can never block: the
// goroutine always terminates once the inner Recv returns (at the latest
// when Close closes the inner transport).
func (t *Timeout) pump() {
	m, err := t.Inner.Recv()
	t.pending <- recvResult{m, err}
}

// Close implements Transport, releasing any blocked Recv and the background
// receive goroutine.
func (t *Timeout) Close() error {
	t.closeOnce.Do(func() {
		t.mu.Lock()
		if t.done == nil {
			t.done = make(chan struct{})
		}
		close(t.done)
		t.mu.Unlock()
	})
	return t.Inner.Close()
}

// Blackhole is a fault-injection transport whose Send silently discards
// everything and whose Recv blocks until Close — a crashed node, as seen by
// the rest of the ring.
type Blackhole struct {
	once sync.Once
	done chan struct{}
}

// NewBlackhole returns a fresh blackhole transport.
func NewBlackhole() *Blackhole { return &Blackhole{done: make(chan struct{})} }

// Send implements Transport (discarding the message).
func (b *Blackhole) Send(Message) error { return nil }

// Recv implements Transport (blocking until Close).
func (b *Blackhole) Recv() (Message, error) {
	<-b.done
	return Message{}, errors.New("dist: blackhole closed")
}

// Close implements Transport.
func (b *Blackhole) Close() error {
	b.once.Do(func() { close(b.done) })
	return nil
}

// Dedup wraps a transport and drops messages already delivered, making
// duplicated retransmissions harmless. Senders must stamp strictly
// increasing Seq values per (From, Epoch) — the ring node does. Tracking is
// per sender, so the ring can be rewired (a supervisor ejecting a node
// changes who the predecessor is) without dropping the new predecessor's
// traffic, and a sender restarting under a higher Epoch resets its mark.
type Dedup struct {
	Inner Transport
	seen  map[int]seqMark
}

type seqMark struct {
	epoch uint64
	seq   uint64
}

// NewDedup returns a duplicate-suppressing view of t.
func NewDedup(t Transport) *Dedup {
	return &Dedup{Inner: t, seen: make(map[int]seqMark)}
}

// Send implements Transport.
func (d *Dedup) Send(m Message) error { return d.Inner.Send(m) }

// Recv implements Transport, skipping duplicates and pre-restart stragglers.
func (d *Dedup) Recv() (Message, error) {
	for {
		m, err := d.Inner.Recv()
		if err != nil {
			return m, err
		}
		if mark, ok := d.seen[m.From]; ok {
			if m.Epoch < mark.epoch {
				continue // straggler from before the sender's restart
			}
			if m.Epoch == mark.epoch && m.Seq <= mark.seq {
				continue // duplicate
			}
		}
		d.seen[m.From] = seqMark{epoch: m.Epoch, seq: m.Seq}
		return m, nil
	}
}

// Close implements Transport.
func (d *Dedup) Close() error { return d.Inner.Close() }
