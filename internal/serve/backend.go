package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nashlb/internal/rng"
)

// DefaultQueueCap bounds a backend's jobs in system (waiting + in service)
// when the configuration leaves QueueCap zero.
const DefaultQueueCap = 512

// BackendConfig describes one worker node.
type BackendConfig struct {
	// Rate is the node's service rate mu (jobs/second); each accepted job
	// costs an exponential service time with this rate, making the node an
	// M/M/1 station under Poisson input.
	Rate float64
	// QueueCap bounds the jobs in system; arrivals beyond it get a
	// queue-full reply (DefaultQueueCap when zero).
	QueueCap int
	// Seed roots the service-time stream (fully reproducible work).
	Seed uint64
	// Addr is the listen address ("127.0.0.1:0" when empty).
	Addr string
}

// Backend is a single worker node: a server whose /work endpoint upgrades
// to the binary work-hop protocol (workhop.go) and runs each framed job
// through a bounded FCFS queue served by one goroutine drawing exponential
// service times at rate mu — a live M/M/1 station. A status frame reads its
// queue depth for the gateway's probes and estimation loop; /healthz is for
// process supervisors. Backends are embeddable in-process for tests or run
// standalone via `nashgate -backend`.
type Backend struct {
	cfg BackendConfig

	ln    net.Listener
	srv   *http.Server
	jobs  chan *backendJob
	wg    sync.WaitGroup
	conns connSet // upgraded /work connections

	mu      sync.Mutex
	depth   int
	closing bool

	served   atomic.Int64
	rejected atomic.Int64
	busyNs   atomic.Int64
}

// backendJob is one work connection's job slot, reused frame after frame
// (a connection carries one request at a time): the worker sets service
// and signals done.
type backendJob struct {
	done    chan struct{}
	service time.Duration
}

// NewBackend validates the configuration and returns an unstarted backend.
func NewBackend(cfg BackendConfig) (*Backend, error) {
	if !(cfg.Rate > 0) {
		return nil, fmt.Errorf("serve: backend rate %g must be positive", cfg.Rate)
	}
	if cfg.QueueCap < 0 {
		return nil, fmt.Errorf("serve: negative queue capacity %d", cfg.QueueCap)
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	return &Backend{
		cfg:  cfg,
		jobs: make(chan *backendJob, cfg.QueueCap),
	}, nil
}

// Start binds the listener, launches the worker, and serves HTTP in the
// background. It returns once the address is bound.
func (b *Backend) Start() error {
	if b.ln != nil {
		return errors.New("serve: backend already started")
	}
	ln, err := net.Listen("tcp", b.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: backend listen: %w", err)
	}
	b.ln = ln

	mux := http.NewServeMux()
	mux.HandleFunc("/work", b.handleWork)
	mux.HandleFunc("/healthz", b.handleHealthz)
	b.srv = &http.Server{Handler: mux}

	b.wg.Add(1)
	go b.worker()
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		_ = b.srv.Serve(ln) // returns ErrServerClosed on Close
	}()
	return nil
}

// worker is the single server of the FCFS queue: it performs each job's
// exponential work in arrival order, run-to-completion.
func (b *Backend) worker() {
	defer b.wg.Done()
	stream := rng.New(b.cfg.Seed)
	for job := range b.jobs {
		job.service = time.Duration(stream.Exp(b.cfg.Rate) * float64(time.Second))
		preciseWait(job.service)
		b.busyNs.Add(int64(job.service))
		b.mu.Lock()
		b.depth--
		b.mu.Unlock()
		b.served.Add(1)
		job.done <- struct{}{}
	}
}

// handleWork upgrades a GET /work to the work-hop protocol and serves its
// frames on the hijacked connection until the gateway closes it or the
// backend shuts down. A request without the upgrade gets 426 and runs no
// job.
func (b *Backend) handleWork(w http.ResponseWriter, r *http.Request) {
	if !wantsWork(r) {
		refuseWork(w)
		return
	}
	conn, br, err := switchToWork(w)
	if err != nil {
		return
	}
	b.conns.serve(conn, func() { b.serveFrames(conn, br) })
}

// serveFrames answers request frames one at a time: a job frame after its
// job has left the queue, a status frame at once. It returns when a read
// fails (the gateway closed the connection, or Close moved the read deadline
// into the past) or a frame has an unknown kind.
func (b *Backend) serveFrames(conn net.Conn, r *bufio.Reader) {
	job := &backendJob{done: make(chan struct{}, 1)}
	var frame [replyFrameLen]byte
	for {
		if _, err := io.ReadFull(r, frame[:requestFrameLen]); err != nil {
			return
		}
		id, kind, err := decodeRequest(frame[:requestFrameLen])
		if err != nil {
			return
		}
		reply := workReply{ID: id}
		if kind == kindStatus {
			reply.Status, reply.Value = b.status()
		} else {
			reply.Status, reply.Value = b.run(job)
		}
		encodeReply(frame[:], reply)
		if _, err := conn.Write(frame[:]); err != nil {
			return
		}
	}
}

// run queues job, waits for the worker to finish it and returns its
// service seconds. A closing backend and a full queue refuse the job
// instead.
func (b *Backend) run(job *backendJob) (workStatus, float64) {
	b.mu.Lock()
	switch {
	case b.closing:
		b.mu.Unlock()
		return statusClosing, 0
	case b.depth >= b.cfg.QueueCap:
		b.mu.Unlock()
		b.rejected.Add(1)
		return statusQueueFull, 0
	}
	b.depth++
	b.mu.Unlock()
	b.jobs <- job // capacity == QueueCap, never blocks
	<-job.done
	return statusOK, job.service.Seconds()
}

// status answers a status frame without touching the FCFS queue: the jobs
// in system, or closing while the backend shuts down. A full queue is
// reported as its depth — busy, not down.
func (b *Backend) status() (workStatus, float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closing {
		return statusClosing, 0
	}
	return statusOK, float64(b.depth)
}

// handleHealthz answers a process supervisor's liveness check: 503 once
// the backend is shutting down.
func (b *Backend) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s, _ := b.status(); s == statusClosing {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// Addr returns the bound address (empty before Start).
func (b *Backend) Addr() string {
	if b.ln == nil {
		return ""
	}
	return b.ln.Addr().String()
}

// URL returns the backend's base URL (empty before Start).
func (b *Backend) URL() string {
	if b.ln == nil {
		return ""
	}
	return "http://" + b.Addr()
}

// Depth returns the current jobs in system.
func (b *Backend) Depth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.depth
}

// Served returns the number of completed jobs.
func (b *Backend) Served() int64 { return b.served.Load() }

// Rejected returns the number of queue-full rejections.
func (b *Backend) Rejected() int64 { return b.rejected.Load() }

// BusyTime returns the cumulative in-service time, so BusyTime/elapsed
// estimates the node's utilization rho.
func (b *Backend) BusyTime() time.Duration { return time.Duration(b.busyNs.Load()) }

// Close answers the frames in flight, stops the worker and releases the
// listener. A frame read during shutdown gets a closing reply.
func (b *Backend) Close() error {
	if b.srv == nil {
		return nil
	}
	b.mu.Lock()
	b.closing = true
	b.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	if err != nil {
		err = errors.Join(err, b.srv.Close())
	}
	// Shutdown does not see the upgraded /work connections. Their next read
	// fails at once; a frame already read is answered first (the worker
	// keeps draining meanwhile), so nothing sends on b.jobs once shut
	// returns.
	b.conns.shut(func(c net.Conn) { _ = c.SetReadDeadline(aLongTimeAgo) })
	close(b.jobs)
	b.wg.Wait()
	b.srv = nil
	return err
}

// preciseWait blocks for d with microsecond-level accuracy: it sleeps for
// all but a short tail, then spins the remainder. Plain time.Sleep overshoot
// (tens to hundreds of microseconds) would systematically inflate service
// times that are only a few milliseconds, biasing the M/M/1 validation.
func preciseWait(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	const tail = 200 * time.Microsecond
	if d > tail {
		time.Sleep(d - tail)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}
