package serve

import (
	"context"
	"io"
	"net/http"
	"testing"
	"time"

	"nashlb/internal/testutil"
)

// chaosGet issues one GET and returns (status, transport error).
func chaosGet(t *testing.T, client *http.Client, url string) (int, error) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

func startChaos(t *testing.T, cfg ChaosProxyConfig) *ChaosProxy {
	t.Helper()
	p, err := NewChaosProxy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func startBackend(t *testing.T, cfg BackendConfig) *Backend {
	t.Helper()
	b, err := NewBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func TestChaosProxyPassThrough(t *testing.T) {
	b := startBackend(t, BackendConfig{Rate: 500, Seed: 1})
	p := startChaos(t, ChaosProxyConfig{Target: b.URL(), Seed: 2})

	replies, err := sendWork(p.URL(), 3, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range replies {
		if r.ID != uint64(k+1) || r.Status != statusOK || r.Value <= 0 {
			t.Fatalf("healthy relay of frame %d: reply %+v", k+1, r)
		}
	}
	if st, err := statusOf(p.URL(), 5*time.Second); err != nil || st.Status != statusOK {
		t.Fatalf("status query pass-through: reply %+v, err %v", st, err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	if status, err := chaosGet(t, client, p.URL()+"/healthz"); err != nil || status != http.StatusUpgradeRequired {
		t.Fatalf("plain GET through the proxy: status %d err %v, want 426", status, err)
	}
	injected, dropped, blackholed, proxied := p.Counts()
	if injected != 0 || dropped != 0 || blackholed != 0 || proxied != 4 {
		t.Fatalf("counts = %d/%d/%d/%d, want 0/0/0/4", injected, dropped, blackholed, proxied)
	}
	if b.Served() != 3 {
		t.Fatalf("backend served %d, want 3", b.Served())
	}
}

func TestChaosProxyErrorInjection(t *testing.T) {
	b := startBackend(t, BackendConfig{Rate: 500, Seed: 1})
	p := startChaos(t, ChaosProxyConfig{
		Target:   b.URL(),
		Seed:     3,
		Schedule: []ChaosPhase{{ErrorRate: 1}},
	})
	replies, err := sendWork(p.URL(), 5, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range replies {
		if r.ID != uint64(k+1) || r.Status != statusFailed {
			t.Fatalf("frame %d: reply %+v, want an injected failure", k+1, r)
		}
	}
	if st, err := statusOf(p.URL(), 5*time.Second); err != nil || st.Status != statusFailed {
		t.Fatalf("status query: reply %+v err %v, want an injected failure", st, err)
	}
	if injected, _, _, proxied := p.Counts(); injected != 6 || proxied != 0 {
		t.Fatalf("injected %d proxied %d, want 6/0", injected, proxied)
	}
	if b.Served() != 0 {
		t.Fatal("injected failures must not reach the backend")
	}
}

// TestChaosProxyDeterministicInjection replays the same seed against the
// same request sequence on two independent proxies and requires an
// identical injection pattern — the property the self-healing e2e runs rely
// on for reproducibility.
func TestChaosProxyDeterministicInjection(t *testing.T) {
	const reqs = 60
	pattern := func(seed uint64) []bool {
		b := startBackend(t, BackendConfig{Rate: 2000, Seed: 9})
		p := startChaos(t, ChaosProxyConfig{
			Target:   b.URL(),
			Seed:     seed,
			Schedule: []ChaosPhase{{ErrorRate: 0.3}},
		})
		replies, err := sendWork(p.URL(), reqs, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, reqs)
		for k, r := range replies {
			out[k] = r.Status == statusFailed
		}
		return out
	}
	a, b := pattern(77), pattern(77)
	injections := 0
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("request %d: run A injected=%v, run B injected=%v", k, a[k], b[k])
		}
		if a[k] {
			injections++
		}
	}
	if injections == 0 || injections == reqs {
		t.Fatalf("degenerate injection pattern: %d/%d", injections, reqs)
	}
	c := pattern(78)
	same := true
	for k := range a {
		if a[k] != c[k] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical injection patterns")
	}
}

// relayedConn upgrades a connection through the proxy in its healthy first
// phase and waits until the proxy's schedule reaches the faulty second one.
func relayedConn(t *testing.T, p *ChaosProxy, timeout time.Duration) *workConn {
	t.Helper()
	target, err := parseWorkTarget(p.URL())
	if err != nil {
		t.Fatal(err)
	}
	nc, err := target.dial(context.Background(), time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	c := newWorkConn(nc)
	t.Cleanup(func() { c.Close() })
	testutil.WaitFor(t, 5*time.Second, "proxy never reached its fault phase", func() bool {
		return p.phase() != ChaosPhase{}
	})
	if err := c.SetDeadline(time.Now().Add(timeout)); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChaosProxyDown(t *testing.T) {
	b := startBackend(t, BackendConfig{Rate: 500, Seed: 1})
	p := startChaos(t, ChaosProxyConfig{
		Target:   b.URL(),
		Seed:     4,
		Schedule: []ChaosPhase{{Down: true}},
	})
	if st, err := statusOf(p.URL(), 2*time.Second); err == nil {
		t.Fatalf("down phase answered a status query: %+v", st)
	}
	if _, err := workStatusOf(p.URL(), 2*time.Second); err == nil {
		t.Fatal("down phase let an upgrade through")
	}
	if _, dropped, _, _ := p.Counts(); dropped != 2 {
		t.Fatalf("%d dropped connections counted, want 2", dropped)
	}

	// A frame on a connection upgraded before the outage is dropped too.
	p = startChaos(t, ChaosProxyConfig{
		Target:   b.URL(),
		Seed:     4,
		Schedule: []ChaosPhase{{Start: 0}, {Start: 50 * time.Millisecond, Down: true}},
	})
	c := relayedConn(t, p, 2*time.Second)
	if r, _, err := c.exchange(1, kindJob); err == nil {
		t.Fatalf("down phase answered a frame: %+v", r)
	}
	if _, dropped, _, _ := p.Counts(); dropped != 1 {
		t.Fatalf("%d dropped frames counted, want 1", dropped)
	}
}

func TestChaosProxyBlackhole(t *testing.T) {
	b := startBackend(t, BackendConfig{Rate: 500, Seed: 1})
	p := startChaos(t, ChaosProxyConfig{
		Target:   b.URL(),
		Seed:     5,
		Schedule: []ChaosPhase{{Start: 0}, {Start: 50 * time.Millisecond, Blackhole: true}},
	})
	c := relayedConn(t, p, 200*time.Millisecond)
	start := time.Now()
	if r, _, err := c.exchange(1, kindJob); err == nil {
		t.Fatalf("black-holed frame got an answer: %+v", r)
	}
	if waited := time.Since(start); waited < 150*time.Millisecond {
		t.Fatalf("client gave up after %v; black hole should hold until the deadline", waited)
	}
	start = time.Now()
	if _, err := workStatusOf(p.URL(), 200*time.Millisecond); err == nil {
		t.Fatal("black-holed upgrade returned an answer")
	}
	if waited := time.Since(start); waited < 150*time.Millisecond {
		t.Fatalf("upgrade gave up after %v; black hole should hold until the deadline", waited)
	}
	if _, _, blackholed, _ := p.Counts(); blackholed != 2 {
		t.Fatalf("%d black-holed frames and requests counted, want 2", blackholed)
	}
	if b.Served() != 0 {
		t.Fatalf("backend served %d black-holed jobs", b.Served())
	}
}

func TestChaosProxySchedulePhases(t *testing.T) {
	b := startBackend(t, BackendConfig{Rate: 500, Seed: 1})
	p := startChaos(t, ChaosProxyConfig{
		Target: b.URL(),
		Seed:   6,
		Schedule: []ChaosPhase{
			{Start: 0},
			{Start: 150 * time.Millisecond, ErrorRate: 1},
		},
	})
	if s, err := workStatusOf(p.URL(), 5*time.Second); err != nil || s != statusOK {
		t.Fatalf("phase 0: reply %v err %v, want ok", s, err)
	}
	time.Sleep(200 * time.Millisecond)
	if s, err := workStatusOf(p.URL(), 5*time.Second); err != nil || s != statusFailed {
		t.Fatalf("phase 1: reply %v err %v, want an injected failure", s, err)
	}
}

func TestChaosProxyRejectsBadSchedule(t *testing.T) {
	if _, err := NewChaosProxy(ChaosProxyConfig{Target: "http://x", Schedule: []ChaosPhase{{ErrorRate: 1.5}}}); err == nil {
		t.Fatal("error rate beyond 1 accepted")
	}
	if _, err := NewChaosProxy(ChaosProxyConfig{
		Target: "http://x",
		Schedule: []ChaosPhase{
			{Start: time.Second},
			{Start: 0},
		},
	}); err == nil {
		t.Fatal("out-of-order schedule accepted")
	}
	if _, err := NewChaosProxy(ChaosProxyConfig{}); err == nil {
		t.Fatal("missing target accepted")
	}
}

func TestCrasherKillsAndRevives(t *testing.T) {
	c, err := NewCrasher(BackendConfig{Rate: 500, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	url := c.URL()

	if s, err := workStatusOf(url, 2*time.Second); err != nil || s != statusOK {
		t.Fatalf("pre-crash: reply %v err %v", s, err)
	}
	if err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	if c.Backend() != nil {
		t.Fatal("Backend() not nil while crashed")
	}
	if _, err := workStatusOf(url, 2*time.Second); err == nil {
		t.Fatal("crashed backend still answering")
	}
	if err := c.Restart(); err != nil {
		t.Fatal(err)
	}
	// Same URL, fresh backend.
	testutil.WaitFor(t, 2*time.Second, "restarted backend never answered", func() bool {
		s, err := workStatusOf(url, 2*time.Second)
		return err == nil && s == statusOK
	})
	if c.Backend() == nil || c.Backend().Served() == 0 {
		t.Fatal("restarted backend has no served work")
	}
}
