package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"nashlb/internal/testutil"
)

// sendFrames opens a work-hop connection to the backend (or proxy) at base
// and sends n request frames of the given kind on it one at a time,
// returning the replies; a dial, upgrade or frame error ends it early.
func sendFrames(base string, kind frameKind, n int, timeout time.Duration) ([]workReply, error) {
	target, err := parseWorkTarget(base)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	nc, err := target.dial(context.Background(), deadline)
	if err != nil {
		return nil, err
	}
	c := newWorkConn(nc)
	defer c.Close()
	if err := c.SetDeadline(deadline); err != nil {
		return nil, err
	}
	var replies []workReply
	for i := 0; i < n; i++ {
		r, _, err := c.exchange(uint64(i+1), kind)
		if err != nil {
			return replies, err
		}
		replies = append(replies, r)
	}
	return replies, nil
}

// sendWork sends n job frames on one connection (see sendFrames).
func sendWork(base string, n int, timeout time.Duration) ([]workReply, error) {
	return sendFrames(base, kindJob, n, timeout)
}

// statusOf sends one status query on a fresh connection and returns its
// reply.
func statusOf(base string, timeout time.Duration) (workReply, error) {
	replies, err := sendFrames(base, kindStatus, 1, timeout)
	if err != nil {
		return workReply{}, err
	}
	return replies[0], nil
}

// workStatusOf sends one frame on a fresh connection and returns its
// reply's status.
func workStatusOf(base string, timeout time.Duration) (workStatus, error) {
	replies, err := sendWork(base, 1, timeout)
	if err != nil {
		return 0, err
	}
	return replies[0].Status, nil
}

func TestParseWorkTarget(t *testing.T) {
	for _, c := range []struct {
		base string
		want workTarget
	}{
		{"http://127.0.0.1:8081", workTarget{addr: "127.0.0.1:8081", host: "127.0.0.1:8081", path: "/work"}},
		{"http://backend/", workTarget{addr: "backend:80", host: "backend", path: "/work"}},
		{"http://[::1]:9/pool/b-1", workTarget{addr: "[::1]:9", host: "[::1]:9", path: "/pool/b-1/work"}},
	} {
		got, err := parseWorkTarget(c.base)
		if err != nil || got != c.want {
			t.Errorf("parseWorkTarget(%q) = %+v, %v; want %+v", c.base, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "127.0.0.1:8081", "https://backend", "http://", "http://%zz"} {
		if got, err := parseWorkTarget(bad); err == nil {
			t.Errorf("parseWorkTarget(%q) = %+v, want an error", bad, got)
		}
	}
}

func FuzzWorkFrame(f *testing.F) {
	seed := func(id uint64, s workStatus, value float64) {
		b := make([]byte, replyFrameLen)
		encodeReply(b, workReply{ID: id, Status: s, Value: value})
		f.Add(b)
	}
	seed(1, statusOK, 0.012345)
	seed(math.MaxUint64, statusQueueFull, 0)
	seed(7, statusClosing, math.Copysign(0, -1))
	seed(8, statusFailed, math.Inf(1))
	seed(9, statusOK, math.Inf(-1))
	seed(10, statusOK, math.NaN())
	seed(11, statusOK, math.Float64frombits(0x7ff0000000000001)) // signalling NaN
	seed(12, statusOK, 5e-324)
	f.Add([]byte{})
	f.Add(make([]byte, 8))                                    // a nashlb-work/1 request
	f.Add(make([]byte, replyFrameLen))                        // status 0
	f.Add(append(make([]byte, 8), 5, 0, 0, 0, 0, 0, 0, 0, 0)) // status 5
	f.Add(make([]byte, replyFrameLen+1))
	seed(13, statusOK, 512) // a status reply's jobs in system
	for _, kind := range []frameKind{kindJob, kindStatus} {
		b := make([]byte, requestFrameLen)
		encodeRequest(b, 42, kind)
		f.Add(b)
	}
	f.Add(make([]byte, requestFrameLen)) // kind 0
	f.Add(append(make([]byte, 8), 3))    // kind 3

	f.Fuzz(func(t *testing.T, data []byte) {
		id, kind, err := decodeRequest(data)
		valid := len(data) == requestFrameLen && (data[8] == byte(kindJob) || data[8] == byte(kindStatus))
		if (err == nil) != valid {
			t.Fatalf("decodeRequest(%x): err %v", data, err)
		}
		if err == nil {
			out := make([]byte, requestFrameLen)
			encodeRequest(out, id, kind)
			if !bytes.Equal(out, data) {
				t.Fatalf("request %x re-encodes as %x", data, out)
			}
		}

		r, err := decodeReply(data)
		switch {
		case len(data) != replyFrameLen:
			if err == nil {
				t.Fatalf("reply frame of %d bytes decoded", len(data))
			}
		case data[8] < byte(statusOK) || data[8] > byte(statusFailed):
			if err == nil {
				t.Fatalf("unknown status byte %d decoded", data[8])
			}
		case err != nil:
			t.Fatalf("valid reply %x: %v", data, err)
		default:
			out := make([]byte, replyFrameLen)
			encodeReply(out, r)
			if !bytes.Equal(out, data) {
				t.Fatalf("reply %x re-encodes as %x", data, out)
			}
		}

		// Encode then decode: every ID and kind of a request, and every ID,
		// status and value of a reply, survives bit for bit, NaN payloads
		// included.
		if len(data) < requestFrameLen {
			return
		}
		wantID, wantKind := binary.BigEndian.Uint64(data[0:8]), frameKind(data[8]%2)+kindJob
		req := make([]byte, requestFrameLen)
		encodeRequest(req, wantID, wantKind)
		if gotID, gotKind, err := decodeRequest(req); err != nil || gotID != wantID || gotKind != wantKind {
			t.Fatalf("request round trip (%d, %d) -> (%d, %d), %v", wantID, wantKind, gotID, gotKind, err)
		}
		if len(data) < replyFrameLen {
			return
		}
		want := workReply{
			ID:     wantID,
			Status: workStatus(data[8]%4) + statusOK,
			Value:  math.Float64frombits(binary.BigEndian.Uint64(data[9:17])),
		}
		frame := make([]byte, replyFrameLen)
		encodeReply(frame, want)
		got, err := decodeReply(frame)
		if err != nil {
			t.Fatalf("encoded %+v: %v", want, err)
		}
		if got.ID != want.ID || got.Status != want.Status || math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Fatalf("round trip %+v -> %+v", want, got)
		}
	})
}

// fakeWork starts a scripted work-hop peer: it accepts the upgrade on /work
// and answers each request frame with answer(id, kind); a false second
// value holds the frame unanswered. Every other request gets 426, so the
// peer has no /healthz and no /queue. The handler returns once the client
// closes its connection.
func fakeWork(t *testing.T, answer func(id uint64, kind frameKind) (workReply, bool)) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !wantsWork(r) {
			refuseWork(w)
			return
		}
		conn, br, err := switchToWork(w)
		if err != nil {
			return
		}
		defer conn.Close()
		frame := make([]byte, replyFrameLen)
		for {
			if _, err := io.ReadFull(br, frame[:requestFrameLen]); err != nil {
				return
			}
			id, kind, err := decodeRequest(frame[:requestFrameLen])
			if err != nil {
				return
			}
			reply, ok := answer(id, kind)
			if !ok {
				continue
			}
			encodeReply(frame, reply)
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func breakerTally(br *breaker) (reports, fails int) {
	br.mu.Lock()
	defer br.mu.Unlock()
	for i := 0; i < br.wn; i++ {
		if br.window[i] {
			fails++
		}
	}
	return br.wn, fails
}

// TestForwardFailureSurface pins, for each outcome of a forwarded job, what
// the client gets, which counter moves, what the breaker hears and whether
// the attempt is retried.
func TestForwardFailureSurface(t *testing.T) {
	const retries = 2
	answer := func(s workStatus) func(uint64, frameKind) (workReply, bool) {
		return func(id uint64, _ frameKind) (workReply, bool) {
			return workReply{ID: id, Status: s, Value: 0.001}, true
		}
	}
	hold := func(uint64, frameKind) (workReply, bool) { return workReply{}, false }
	// held signals each frame the cancel case's peer receives.
	held := make(chan struct{}, 4)

	cases := []struct {
		name    string
		backend func(t *testing.T) string
		cancel  bool
		code    int
		counter string // BackendRequests, BackendRejects or BackendErrors
		fails   int    // breaker failures reported (of attempts outcomes)
		reports int    // breaker outcomes reported
		tries   int64  // attempts made
		body    string
	}{
		{name: "ok", backend: func(t *testing.T) string { return fakeWork(t, answer(statusOK)) },
			code: 200, counter: "requests", reports: 1, tries: 1},
		{name: "queue full", backend: func(t *testing.T) string { return fakeWork(t, answer(statusQueueFull)) },
			code: 503, counter: "rejects", reports: 1, tries: 1},
		{name: "closing", backend: func(t *testing.T) string { return fakeWork(t, answer(statusClosing)) },
			code: 503, counter: "rejects", reports: 1, fails: 1, tries: 1},
		{name: "injected failure", backend: func(t *testing.T) string { return fakeWork(t, answer(statusFailed)) },
			code: 502, counter: "errors", reports: 1, fails: 1, tries: 1},
		{name: "dial error", backend: func(t *testing.T) string {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			url := "http://" + ln.Addr().String()
			ln.Close()
			return url
		}, code: 502, counter: "errors", reports: 1 + retries, fails: 1 + retries, tries: 1 + retries},
		{name: "refused upgrade", backend: func(t *testing.T) string {
			// A backend of the JSON era: /work answers 200 with a body.
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				_, _ = io.WriteString(w, `{"service_s":0.001}`+"\n")
			}))
			t.Cleanup(srv.Close)
			return srv.URL
		}, code: 502, counter: "errors", reports: 1 + retries, fails: 1 + retries, tries: 1 + retries,
			body: "refused the " + workProtocol + " upgrade"},
		{name: "deadline", backend: func(t *testing.T) string { return fakeWork(t, hold) },
			code: 502, counter: "errors", reports: 1 + retries, fails: 1 + retries, tries: 1 + retries},
		{name: "caller cancel", backend: func(t *testing.T) string {
			return fakeWork(t, func(uint64, frameKind) (workReply, bool) {
				held <- struct{}{}
				return workReply{}, false
			})
		}, cancel: true, code: 502, counter: "errors", tries: 1},
		{name: "id mismatch", backend: func(t *testing.T) string {
			return fakeWork(t, func(id uint64, _ frameKind) (workReply, bool) {
				return workReply{ID: id + 1, Status: statusOK}, true
			})
		}, code: 502, counter: "errors", reports: 1 + retries, fails: 1 + retries, tries: 1 + retries},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := NewGateway(GatewayConfig{
				Backends:    []string{c.backend(t)},
				Rates:       []float64{100},
				Arrivals:    []float64{1},
				Timeout:     150 * time.Millisecond,
				Retries:     retries,
				RetryBase:   time.Millisecond,
				RetryMax:    2 * time.Millisecond,
				RetryBudget: -1, // retries limited by Retries alone
				ProbeEvery:  time.Hour,
				Breaker:     BreakerConfig{Failures: 100, Window: 100},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(g.closeConns)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.cancel {
				go func() {
					<-held
					cancel()
				}()
			}
			req := httptest.NewRequest(http.MethodGet, "/submit?user=0", nil).WithContext(ctx)
			rec := httptest.NewRecorder()
			g.handleSubmit(rec, req)

			if rec.Code != c.code {
				t.Errorf("client status %d, want %d (%s)", rec.Code, c.code, strings.TrimSpace(rec.Body.String()))
			}
			if !strings.Contains(rec.Body.String(), c.body) {
				t.Errorf("body %q does not name %q", rec.Body.String(), c.body)
			}
			snap := g.Metrics()
			counts := map[string]int64{
				"requests": snap.BackendRequests[0],
				"rejects":  snap.BackendRejects[0],
				"errors":   snap.BackendErrors[0],
			}
			for name, n := range counts {
				want := int64(0)
				if name == c.counter {
					want = 1
				}
				if n != want {
					t.Errorf("backend %s = %d, want %d", name, n, want)
				}
			}
			reports, fails := breakerTally(g.health.brs[0])
			if reports != c.reports || fails != c.fails {
				t.Errorf("breaker heard %d outcomes, %d failures; want %d, %d", reports, fails, c.reports, c.fails)
			}
			if tries := g.met.connAttempts[0].Load(); tries != c.tries {
				t.Errorf("%d attempts, want %d", tries, c.tries)
			}
		})
	}
}

// TestBackendCloseAnswersInFlight closes a backend while clients keep frames
// in flight on several connections: every job the backend ran is answered
// ok, the only other answers are closing replies and closed connections,
// and no job is sent on the closed queue (run under -race -count=10).
func TestBackendCloseAnswersInFlight(t *testing.T) {
	b, err := NewBackend(BackendConfig{Rate: 2000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	const clients = 6
	var (
		mu      sync.Mutex
		ok      int64
		closing int64
		wg      sync.WaitGroup
	)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			target, _ := parseWorkTarget(b.URL())
			nc, err := target.dial(context.Background(), time.Now().Add(5*time.Second))
			if err != nil {
				t.Error(err)
				return
			}
			c := newWorkConn(nc)
			defer c.Close()
			_ = c.SetDeadline(time.Now().Add(10 * time.Second))
			for id := uint64(1); ; id++ {
				r, _, err := c.exchange(id, kindJob)
				if err != nil {
					if !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) && !errors.Is(err, syscall.EPIPE) {
						t.Errorf("frame %d: %v", id, err)
					}
					return
				}
				mu.Lock()
				switch r.Status {
				case statusOK:
					ok++
				case statusClosing:
					closing++
				default:
					t.Errorf("frame %d: reply %s", id, r.Status)
				}
				mu.Unlock()
			}
		}()
	}
	testutil.WaitFor(t, 5*time.Second, "clients never got frames through", func() bool {
		return b.Served() >= 2*clients
	})
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if ok != b.Served() {
		t.Fatalf("%d ok replies for %d jobs served", ok, b.Served())
	}
	t.Logf("%d ok, %d closing replies", ok, closing)
}

// TestBackendRefusesPlainWork: /work without the upgrade is refused with
// 426 and runs no job.
func TestBackendRefusesPlainWork(t *testing.T) {
	b := startBackend(t, BackendConfig{Rate: 500, Seed: 3})
	resp, err := http.Get(b.URL() + "/work")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Fatalf("plain GET /work: status %d, want 426", resp.StatusCode)
	}
	if got := resp.Header.Get("Upgrade"); got != workProtocol {
		t.Fatalf("426 names upgrade %q, want %q", got, workProtocol)
	}
	if b.Served() != 0 || b.Depth() != 0 {
		t.Fatalf("plain GET ran a job: served %d depth %d", b.Served(), b.Depth())
	}
	if s, err := workStatusOf(b.URL(), 2*time.Second); err != nil || s != statusOK {
		t.Fatalf("framed job after the refusal: %v %v", s, err)
	}
}

// TestStatusRidesTheWorkHop: a gateway whose backends speak only the work
// hop (no /healthz, no /queue) gets healthy probes and complete depth
// sweeps, both as status frames on the pools that carry jobs.
func TestStatusRidesTheWorkHop(t *testing.T) {
	depths := []int64{2, 5}
	urls := make([]string, len(depths))
	for j, d := range depths {
		d := d
		urls[j] = fakeWork(t, func(id uint64, kind frameKind) (workReply, bool) {
			if kind == kindStatus {
				return workReply{ID: id, Status: statusOK, Value: float64(d)}, true
			}
			return workReply{ID: id, Status: statusOK, Value: 0.001}, true
		})
	}
	g, err := NewGateway(GatewayConfig{
		Backends:   urls,
		Rates:      []float64{10, 20},
		Arrivals:   []float64{3},
		PollEvery:  10 * time.Millisecond,
		ProbeEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })

	probed := func(j int) (probes, fails int64) {
		g.health.mu.Lock()
		defer g.health.mu.Unlock()
		return g.health.probes[j], g.health.probeFails[j]
	}
	testutil.WaitFor(t, 5*time.Second, "no three complete sweeps and probes", func() bool {
		p0, _ := probed(0)
		p1, _ := probed(1)
		return g.Metrics().Polls >= 3 && p0 >= 3 && p1 >= 3
	})
	snap := g.Metrics()
	for j, d := range depths {
		if _, fails := probed(j); fails != 0 || snap.BreakerStates[j] != BreakerClosed.String() {
			t.Errorf("backend %d: %d failed probes, breaker %s", j, fails, snap.BreakerStates[j])
		}
		if snap.QueueDepth[j] != d {
			t.Errorf("backend %d: depth gauge %d, want %d", j, snap.QueueDepth[j], d)
		}
	}
}

// TestBackendAnswersStatusOutsideQueue: a status query is answered at once,
// even while the only queue slot is busy, and a closing backend answers
// closing, which fails the gateway's probe.
func TestBackendAnswersStatusOutsideQueue(t *testing.T) {
	b := startBackend(t, BackendConfig{Rate: 1, QueueCap: 1, Seed: 12}) // first job ~1.2 s
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if s, err := workStatusOf(b.URL(), 10*time.Second); err != nil || s != statusOK {
			t.Errorf("held job: %v %v", s, err)
		}
	}()
	testutil.WaitFor(t, 2*time.Second, "the job never entered the queue", func() bool {
		return b.Depth() > 0
	})
	// Had the query waited behind the job, it would read depth 0.
	if st, err := statusOf(b.URL(), 5*time.Second); err != nil || st.Status != statusOK || st.Value != 1 {
		t.Fatalf("status query while the slot is busy: reply %+v err %v, want ok with depth 1", st, err)
	}
	wg.Wait()

	b.mu.Lock()
	b.closing = true
	b.mu.Unlock()
	if st, err := statusOf(b.URL(), 5*time.Second); err != nil || st.Status != statusClosing {
		t.Fatalf("status query to a closing backend: reply %+v err %v, want closing", st, err)
	}
	g, err := NewGateway(GatewayConfig{Backends: []string{b.URL()}, Rates: []float64{1}, Arrivals: []float64{0.5}, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.closeConns)
	if ok, errText := g.probe(0); ok || !strings.Contains(errText, "closing") {
		t.Fatalf("probe of a closing backend: ok %v, error %q", ok, errText)
	}
}

// TestProbesFillDepthGauge: with probes on and no depth polls, the gateway
// still reports a backend's jobs in system, on /metrics and /backends.
func TestProbesFillDepthGauge(t *testing.T) {
	b := startBackend(t, BackendConfig{Rate: 1, Seed: 12}) // first job ~1.2 s
	g, err := NewGateway(GatewayConfig{
		Backends:   []string{b.URL()},
		Rates:      []float64{1},
		Arrivals:   []float64{0.5},
		ProbeEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if s, err := workStatusOf(b.URL(), 10*time.Second); err != nil || s != statusOK {
			t.Errorf("held job: %v %v", s, err)
		}
	}()
	defer wg.Wait()
	testutil.WaitFor(t, 5*time.Second, "the depth gauge never read the held job", func() bool {
		return g.Metrics().QueueDepth[0] == 1
	})
	rec := httptest.NewRecorder()
	g.handleBackends(rec, httptest.NewRequest(http.MethodGet, "/backends", nil))
	var st BackendsStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Backends[0].QueueDepth != 1 || b.Depth() != 1 {
		t.Fatalf("/backends queue_depth %d with %d jobs in system, want 1", st.Backends[0].QueueDepth, b.Depth())
	}
	if polls := g.Metrics().Polls; polls != 0 {
		t.Fatalf("%d depth polls without PollEvery", polls)
	}
}

// TestProbesReuseOneConnection: on an idle gateway, sequential probes share
// one pooled work connection, and the reuse counter counts them exactly.
func TestProbesReuseOneConnection(t *testing.T) {
	b := startBackend(t, BackendConfig{Rate: 100, Seed: 1})
	g, err := NewGateway(GatewayConfig{Backends: []string{b.URL()}, Rates: []float64{100}, Arrivals: []float64{1}, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.closeConns)
	const n = 5
	for k := 0; k < n; k++ {
		if ok, errText := g.probe(0); !ok {
			t.Fatalf("probe %d failed: %s", k, errText)
		}
	}
	if snap := g.Metrics(); snap.ConnOpened[0] != 1 || snap.ConnReused[0] != n-1 {
		t.Fatalf("%d probes: %d connections opened, %d reused; want 1, %d", n, snap.ConnOpened[0], snap.ConnReused[0], n-1)
	}
}

// TestProbeRejectsMalformedDepth: a status reply whose value is not a jobs
// count fails the probe and leaves the depth gauge alone.
func TestProbeRejectsMalformedDepth(t *testing.T) {
	for _, v := range []float64{-1, 0.5, math.NaN(), math.Inf(1), 1 << 63} {
		url := fakeWork(t, func(id uint64, _ frameKind) (workReply, bool) {
			return workReply{ID: id, Status: statusOK, Value: v}, true
		})
		g, err := NewGateway(GatewayConfig{Backends: []string{url}, Rates: []float64{1}, Arrivals: []float64{0.5},
			ProbeEvery: time.Hour, ProbeTimeout: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		g.met.queueDepth[0].Store(7)
		if ok, errText := g.probe(0); ok || !strings.Contains(errText, "depth") {
			t.Errorf("depth %g: probe ok %v, error %q", v, ok, errText)
		}
		if d := g.Metrics().QueueDepth[0]; d != 7 {
			t.Errorf("depth %g: gauge moved to %d", v, d)
		}
		g.closeConns()
	}
}
