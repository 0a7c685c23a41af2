package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The work hop: every message a gateway sends a backend. It travels on TCP
// connections that open as HTTP/1.1 — one GET /work carrying
// "Upgrade: nashlb-work/2", answered 101 — and then carry fixed-size binary
// frames, one request at a time per connection:
//
//	request   9 bytes  the request ID (big-endian uint64) and a kind byte:
//	                   job (run one job) or status (report the queue)
//	reply    17 bytes  the request's ID, a status byte, and a value as
//	                   big-endian float64 bits: a job's service time in
//	                   seconds, or a status query's jobs in system
//
// A backend answers a status query at once, outside its FCFS queue: ok with
// its jobs in system, or closing while it shuts down. The gateway's health
// probes and queue-depth polls are status queries on the pooled connections
// that carry jobs. A backend that does not speak this version refuses the
// upgrade, and the gateway counts that as a failed attempt: gateway and
// backend must run the same version.

// workProtocol is the Upgrade token of the work hop.
const workProtocol = "nashlb-work/2"

const (
	requestFrameLen = 9
	replyFrameLen   = 17
)

// frameKind is what a request frame asks of the backend.
type frameKind byte

const (
	// kindJob: run one job through the FCFS queue.
	kindJob frameKind = 1
	// kindStatus: report the jobs in system at once.
	kindStatus frameKind = 2
)

// workStatus is the outcome a reply frame carries.
type workStatus byte

const (
	// statusOK: the job ran, or the status query was answered.
	statusOK workStatus = 1
	// statusQueueFull: the backend's queue was full — busy, not down.
	statusQueueFull workStatus = 2
	// statusClosing: the backend is shutting down and took no job.
	statusClosing workStatus = 3
	// statusFailed: the request failed (a chaos proxy's injected fault).
	statusFailed workStatus = 4
)

func (s workStatus) String() string {
	switch s {
	case statusOK:
		return "ok"
	case statusQueueFull:
		return "queue full"
	case statusClosing:
		return "closing"
	case statusFailed:
		return "failed"
	}
	return fmt.Sprintf("status %d", byte(s))
}

// healthyReply classifies a reply as a health signal: a backend that
// answered ok or queue full is alive (busy is not down); closing and
// failed replies count against its breaker.
func healthyReply(s workStatus) bool {
	return s == statusOK || s == statusQueueFull
}

// workReply is a decoded reply frame.
type workReply struct {
	ID     uint64
	Status workStatus
	// Value is a job's service time in seconds, or a status query's jobs
	// in system.
	Value float64
}

// encodeRequest writes the request frame for id and kind into
// b[:requestFrameLen].
func encodeRequest(b []byte, id uint64, kind frameKind) {
	binary.BigEndian.PutUint64(b[:8], id)
	b[8] = byte(kind)
}

// decodeRequest decodes a request frame: any other length, or a kind byte
// other than job and status, is an error.
func decodeRequest(b []byte) (uint64, frameKind, error) {
	if len(b) != requestFrameLen {
		return 0, 0, fmt.Errorf("serve: request frame of %d bytes, want %d", len(b), requestFrameLen)
	}
	kind := frameKind(b[8])
	if kind != kindJob && kind != kindStatus {
		return 0, 0, fmt.Errorf("serve: request frame with unknown kind byte %d", b[8])
	}
	return binary.BigEndian.Uint64(b[:8]), kind, nil
}

// encodeReply writes r's reply frame into b[:replyFrameLen]. The value is
// stored as its float64 bits, so every value (NaN and Inf included)
// round-trips exactly.
func encodeReply(b []byte, r workReply) {
	_ = b[replyFrameLen-1]
	binary.BigEndian.PutUint64(b[0:8], r.ID)
	b[8] = byte(r.Status)
	binary.BigEndian.PutUint64(b[9:17], math.Float64bits(r.Value))
}

// decodeReply decodes a reply frame: any other length, or a status byte
// outside the four defined, is an error.
func decodeReply(b []byte) (workReply, error) {
	if len(b) != replyFrameLen {
		return workReply{}, fmt.Errorf("serve: reply frame of %d bytes, want %d", len(b), replyFrameLen)
	}
	r := workReply{
		ID:     binary.BigEndian.Uint64(b[0:8]),
		Status: workStatus(b[8]),
		Value:  math.Float64frombits(binary.BigEndian.Uint64(b[9:17])),
	}
	if r.Status < statusOK || r.Status > statusFailed {
		return workReply{}, fmt.Errorf("serve: reply frame with unknown status byte %d", b[8])
	}
	return r, nil
}

// aLongTimeAgo is a deadline in the past: setting it makes a blocked read
// or write on a connection return at once.
var aLongTimeAgo = time.Unix(1, 0)

// upgradeResponse is the backend's answer to an accepted upgrade.
const upgradeResponse = "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + workProtocol + "\r\n\r\n"

// wantsWork reports whether r asks to upgrade /work to the frame protocol.
func wantsWork(r *http.Request) bool {
	return r.Method == http.MethodGet && strings.EqualFold(r.Header.Get("Upgrade"), workProtocol)
}

// refuseWork answers a /work request that did not ask for the upgrade:
// 426, and no job runs.
func refuseWork(w http.ResponseWriter) {
	w.Header().Set("Upgrade", workProtocol)
	w.Header().Set("Connection", "Upgrade")
	http.Error(w, "/work speaks "+workProtocol+" only", http.StatusUpgradeRequired)
}

// switchToWork hijacks the connection of an upgrade request and answers
// 101. The reader holds whatever the client sent after its request.
func switchToWork(w http.ResponseWriter) (net.Conn, *bufio.Reader, error) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		return nil, nil, errors.New("serve: connection cannot be hijacked")
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		return nil, nil, err
	}
	if _, err := io.WriteString(conn, upgradeResponse); err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, rw.Reader, nil
}

// workTarget locates a backend's /work endpoint.
type workTarget struct {
	addr string // dial address, host:port
	host string // Host header
	path string // request path of the upgrade: the base URL's path + /work
}

// parseWorkTarget resolves a backend base URL.
func parseWorkTarget(base string) (workTarget, error) {
	u, err := url.Parse(base)
	if err != nil || u.Scheme != "http" || u.Host == "" {
		return workTarget{}, fmt.Errorf("serve: backend URL %q is not http://host[:port][/path]", base)
	}
	t := workTarget{addr: u.Host, host: u.Host, path: strings.TrimSuffix(u.EscapedPath(), "/") + "/work"}
	if u.Port() == "" {
		t.addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return t, nil
}

// dial opens a work connection: a TCP dial and the upgrade of GET /work,
// both within deadline and abandoned when ctx ends. The returned connection
// has no deadline set.
func (t workTarget) dial(ctx context.Context, deadline time.Time) (net.Conn, error) {
	d := net.Dialer{Deadline: deadline, KeepAlive: 30 * time.Second}
	c, err := d.DialContext(ctx, "tcp", t.addr)
	if err != nil {
		return nil, err
	}
	if err = c.SetDeadline(deadline); err == nil {
		stop := context.AfterFunc(ctx, func() { _ = c.SetDeadline(aLongTimeAgo) })
		err = t.upgrade(c)
		if !stop() {
			err = errors.Join(ctx.Err(), err)
		}
	}
	if err == nil {
		err = c.SetDeadline(time.Time{})
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// upgrade sends the upgrade request on c and checks the 101.
func (t workTarget) upgrade(c net.Conn) error {
	req := "GET " + t.path + " HTTP/1.1\r\nHost: " + t.host + "\r\nConnection: Upgrade\r\nUpgrade: " + workProtocol + "\r\n\r\n"
	if _, err := io.WriteString(c, req); err != nil {
		return err
	}
	br := bufio.NewReaderSize(c, 512)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return fmt.Errorf("serve: %s upgrade: %w", workProtocol, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), workProtocol) {
		return fmt.Errorf("serve: backend %s refused the %s upgrade: %s", t.host, workProtocol, resp.Status)
	}
	if br.Buffered() > 0 {
		return fmt.Errorf("serve: backend %s sent %d bytes before the first frame", t.host, br.Buffered())
	}
	return nil
}

// workConn is one upgraded connection on the gateway side, with its frame
// buffer and the cancel hook a caller's context fires.
type workConn struct {
	net.Conn
	buf       [replyFrameLen]byte
	interrupt func()
}

func newWorkConn(c net.Conn) *workConn {
	wc := &workConn{Conn: c}
	wc.interrupt = func() { _ = c.SetDeadline(aLongTimeAgo) }
	return wc
}

// exchange sends one request frame and reads its reply. got reports
// whether any reply byte arrived, which tells a connection the backend
// closed while it sat idle from one that failed mid-answer.
func (c *workConn) exchange(id uint64, kind frameKind) (r workReply, got bool, err error) {
	encodeRequest(c.buf[:], id, kind)
	if _, err := c.Conn.Write(c.buf[:requestFrameLen]); err != nil {
		return workReply{}, false, err
	}
	n, err := io.ReadFull(c.Conn, c.buf[:])
	if err != nil {
		return workReply{}, n > 0, err
	}
	if r, err = decodeReply(c.buf[:]); err == nil && r.ID != id {
		err = fmt.Errorf("serve: reply to frame %d where frame %d was sent", r.ID, id)
	}
	return r, true, err
}

// workPool is one backend's pool of upgraded work connections. Idle ones
// wait on a stack (the warmest is reused first), at most maxIdle of them;
// a connection that saw an error is closed, never returned.
type workPool struct {
	target  workTarget
	maxIdle int
	opened  *atomic.Int64 // fresh dials: the gateway's connOpened counter

	mu     sync.Mutex
	idle   []*workConn
	closed bool
}

// roundTrip sends one request frame and waits for its reply, on a pooled
// connection or a fresh one. Every read, write and the dial itself end at deadline,
// and ctx's cancel moves the connection's deadline into the past through
// context.AfterFunc. A pooled connection the backend closed while it sat
// idle (nothing came back) is replaced by one fresh dial, as net/http
// retries a request on a stale keep-alive connection.
func (p *workPool) roundTrip(ctx context.Context, id uint64, kind frameKind, deadline time.Time) (workReply, error) {
	c := p.get()
	reused := c != nil
	for {
		if c == nil {
			p.opened.Add(1)
			nc, err := p.target.dial(ctx, deadline)
			if err != nil {
				return workReply{}, err
			}
			c = newWorkConn(nc)
		}
		if err := c.SetDeadline(deadline); err != nil {
			c.Close()
			return workReply{}, err
		}
		stop := context.AfterFunc(ctx, c.interrupt)
		r, got, err := c.exchange(id, kind)
		if !stop() {
			// The cancel ran or is running and may still move the
			// deadline: the connection cannot be reused.
			c.Close()
			return r, errors.Join(ctx.Err(), err)
		}
		if err != nil {
			c.Close()
			if reused && !got && !isTimeout(err) {
				c, reused = nil, false
				continue
			}
			return r, err
		}
		if r.Status == statusClosing {
			c.Close() // the backend closes it at its next read
		} else {
			p.put(c)
		}
		return r, nil
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func (p *workPool) get() *workConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return nil
	}
	c := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	return c
}

func (p *workPool) put(c *workConn) {
	p.mu.Lock()
	if !p.closed && len(p.idle) < p.maxIdle {
		p.idle = append(p.idle, c)
		c = nil
	}
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// close drops the idle connections; those in use are closed when they come
// back.
func (p *workPool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// connSet tracks hijacked connections. An http.Server forgets a connection
// once its handler hijacks it, so Shutdown and Close neither wait for nor
// close it; the owner's Close calls shut instead.
type connSet struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// serve runs fn, which owns c, unless shut has begun, and closes c when fn
// returns.
func (s *connSet) serve(c net.Conn, fn func()) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.Close()
		return
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
		s.wg.Done()
	}()
	fn()
}

// shut refuses further connections, applies stop to every tracked one, and
// waits until each serve has returned.
func (s *connSet) shut(stop func(net.Conn)) {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		stop(c)
	}
	s.mu.Unlock()
	s.wg.Wait()
}
