package dist

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"nashlb/internal/game"
	"nashlb/internal/rng"
)

// The state service is the deployment analogue of the paper's "inspect the
// run queue of each computer": a process that knows the cluster state and
// answers two questions — what processing rate is available to user i, and
// here is user i's new strategy. It lets the ring nodes run as separate OS
// processes (cmd/nashd -mode node) while sharing one consistent view.
//
// The wire protocol is JSON lines. Both sides enforce read/write deadlines
// and a maximum message size, so one hung or malicious peer can neither
// wedge the server nor force unbounded allocation.

// The state-service connection bounds.
const (
	// stateReadTimeout bounds the wait for the next request or response
	// line; clients legitimately idle between protocol rounds.
	stateReadTimeout = 2 * time.Minute
	// stateWriteTimeout bounds each line write.
	stateWriteTimeout = 10 * time.Second
	// stateMaxMessage bounds one encoded line. Snapshots carry the full m×n
	// profile, so the bound is above the ring codec's.
	stateMaxMessage = 8 << 20
)

// stateRequest is the JSON wire request of the state service.
type stateRequest struct {
	Op       string    `json:"op"` // "available" | "publish" | "snapshot"
	User     int       `json:"user,omitempty"`
	Strategy []float64 `json:"strategy,omitempty"`
}

// stateResponse is the JSON wire response.
type stateResponse struct {
	Err     string      `json:"err,omitempty"`
	Rates   []float64   `json:"rates,omitempty"`
	Profile [][]float64 `json:"profile,omitempty"`
}

// decodeStateRequest parses one request line, rejecting malformed or
// structurally invalid input instead of passing it to the store.
func decodeStateRequest(b []byte) (stateRequest, error) {
	var req stateRequest
	if err := json.Unmarshal(b, &req); err != nil {
		return stateRequest{}, fmt.Errorf("malformed request: %v", err)
	}
	if req.User < 0 {
		return stateRequest{}, fmt.Errorf("negative user %d", req.User)
	}
	return req, nil
}

// StateServer exposes a StateStore over TCP with a JSON-lines protocol.
type StateServer struct {
	store StateStore
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  bool
}

// ServeState starts a state server for store on addr (use "127.0.0.1:0" for
// an ephemeral port) and returns immediately; connections are handled on
// background goroutines until Close.
func ServeState(store StateStore, addr string) (*StateServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: state server listen: %w", err)
	}
	s := &StateServer{
		store: store,
		ln:    ln,
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *StateServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes live connections and waits for handlers.
func (s *StateServer) Close() error {
	s.mu.Lock()
	s.done = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *StateServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *StateServer) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 512), stateMaxMessage)
	for {
		conn.SetReadDeadline(time.Now().Add(stateReadTimeout))
		if !sc.Scan() {
			return // client went away, idled out, or overflowed the bound
		}
		var resp stateResponse
		req, err := decodeStateRequest(sc.Bytes())
		if err != nil {
			// Line framing resynchronizes at the next newline, so a bad
			// request gets an error response instead of killing the conn.
			resp.Err = err.Error()
		} else {
			resp = s.serve(req)
		}
		b, err := json.Marshal(&resp)
		if err != nil {
			return
		}
		conn.SetWriteDeadline(time.Now().Add(stateWriteTimeout))
		if _, err := conn.Write(append(b, '\n')); err != nil {
			return
		}
	}
}

func (s *StateServer) serve(req stateRequest) stateResponse {
	var resp stateResponse
	switch req.Op {
	case "available":
		rates, err := s.store.Available(req.User)
		if err != nil {
			resp.Err = err.Error()
		} else {
			resp.Rates = rates
		}
	case "publish":
		if err := s.store.Publish(req.User, game.Strategy(req.Strategy)); err != nil {
			resp.Err = err.Error()
		}
	case "snapshot":
		p := s.store.Snapshot()
		resp.Profile = make([][]float64, len(p))
		for i := range p {
			resp.Profile[i] = p[i]
		}
	default:
		resp.Err = fmt.Sprintf("unknown op %q", req.Op)
	}
	return resp
}

// RemoteStore is a StateStore client talking to a StateServer over TCP.
// It reconnects transparently on connection failures, with capped
// exponential backoff and seeded jitter between attempts. Safe for
// concurrent use (requests are serialized over one connection).
type RemoteStore struct {
	addr    string
	mu      sync.Mutex
	conn    net.Conn
	sc      *bufio.Scanner
	backoff Backoff
}

// DialState returns a client for the state service at addr. The connection
// is established lazily on the first call.
func DialState(addr string) *RemoteStore {
	return &RemoteStore{
		addr: addr,
		backoff: Backoff{
			Base: 2 * time.Millisecond,
			Max:  250 * time.Millisecond,
			R:    rng.NewSource(0x57a7e).Stream(addr),
		},
	}
}

func (r *RemoteStore) roundTrip(req stateRequest) (stateResponse, error) {
	frame, err := json.Marshal(&req)
	if err != nil {
		return stateResponse{}, err
	}
	frame = append(frame, '\n')
	r.mu.Lock()
	defer r.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(r.backoff.Next())
		}
		if r.conn == nil {
			conn, err := net.DialTimeout("tcp", r.addr, 2*time.Second)
			if err != nil {
				lastErr = err
				continue
			}
			r.conn = conn
			r.sc = bufio.NewScanner(conn)
			r.sc.Buffer(make([]byte, 0, 512), stateMaxMessage)
		}
		r.conn.SetWriteDeadline(time.Now().Add(stateWriteTimeout))
		if _, err := r.conn.Write(frame); err != nil {
			lastErr = err
			r.reset()
			continue
		}
		// A healthy server answers immediately, so the response wait uses
		// the (short) write bound, not the idle read bound.
		r.conn.SetReadDeadline(time.Now().Add(stateWriteTimeout))
		if !r.sc.Scan() {
			if lastErr = r.sc.Err(); lastErr == nil {
				lastErr = io.EOF
			}
			r.reset()
			continue
		}
		var resp stateResponse
		if err := json.Unmarshal(r.sc.Bytes(), &resp); err != nil {
			lastErr = err
			r.reset()
			continue
		}
		r.backoff.Reset()
		if resp.Err != "" {
			return resp, errors.New(resp.Err)
		}
		return resp, nil
	}
	return stateResponse{}, fmt.Errorf("dist: state service unreachable at %s: %w", r.addr, lastErr)
}

func (r *RemoteStore) reset() {
	if r.conn != nil {
		r.conn.Close()
	}
	r.conn, r.sc = nil, nil
}

// Available implements StateStore.
func (r *RemoteStore) Available(user int) ([]float64, error) {
	resp, err := r.roundTrip(stateRequest{Op: "available", User: user})
	if err != nil {
		return nil, err
	}
	return resp.Rates, nil
}

// Publish implements StateStore.
func (r *RemoteStore) Publish(user int, s game.Strategy) error {
	_, err := r.roundTrip(stateRequest{Op: "publish", User: user, Strategy: s})
	return err
}

// Snapshot implements StateStore. A transport failure returns nil (the
// interface has no error channel for Snapshot; callers requiring certainty
// use Available/Publish which do report errors).
func (r *RemoteStore) Snapshot() game.Profile {
	resp, err := r.roundTrip(stateRequest{Op: "snapshot"})
	if err != nil {
		return nil
	}
	p := make(game.Profile, len(resp.Profile))
	for i := range resp.Profile {
		p[i] = game.Strategy(resp.Profile[i])
	}
	return p
}

// Close tears down the client connection.
func (r *RemoteStore) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reset()
	return nil
}
