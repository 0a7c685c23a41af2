package serve

import (
	"context"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
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
	p := startChaos(t, ChaosProxyConfig{Target: b.URL(), Seed: 3})
	setChaos(t, p, ChaosPhase{ErrorRate: 1})
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
		p := startChaos(t, ChaosProxyConfig{Target: b.URL(), Seed: seed})
		setChaos(t, p, ChaosPhase{ErrorRate: 0.3})
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

// relayedConn upgrades a connection through the healthy proxy, then sets
// the fault, which the connection's next frame meets.
func relayedConn(t *testing.T, p *ChaosProxy, fault ChaosPhase, timeout time.Duration) *workConn {
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
	setChaos(t, p, fault)
	if err := c.SetDeadline(time.Now().Add(timeout)); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChaosProxyDown(t *testing.T) {
	b := startBackend(t, BackendConfig{Rate: 500, Seed: 1})
	p := startChaos(t, ChaosProxyConfig{Target: b.URL(), Seed: 4})
	setChaos(t, p, ChaosPhase{Down: true})
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
	p = startChaos(t, ChaosProxyConfig{Target: b.URL(), Seed: 4})
	c := relayedConn(t, p, ChaosPhase{Down: true}, 2*time.Second)
	if r, _, err := c.exchange(1, kindJob); err == nil {
		t.Fatalf("down phase answered a frame: %+v", r)
	}
	if _, dropped, _, _ := p.Counts(); dropped != 1 {
		t.Fatalf("%d dropped frames counted, want 1", dropped)
	}
}

func TestChaosProxyBlackhole(t *testing.T) {
	b := startBackend(t, BackendConfig{Rate: 500, Seed: 1})
	p := startChaos(t, ChaosProxyConfig{Target: b.URL(), Seed: 5})
	c := relayedConn(t, p, ChaosPhase{Blackhole: true}, 200*time.Millisecond)
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
	p := startChaos(t, ChaosProxyConfig{Target: b.URL(), Seed: 6})
	if s, err := workStatusOf(p.URL(), 5*time.Second); err != nil || s != statusOK {
		t.Fatalf("phase 0: reply %v err %v, want ok", s, err)
	}
	setChaos(t, p, ChaosPhase{ErrorRate: 1})
	if s, err := workStatusOf(p.URL(), 5*time.Second); err != nil || s != statusFailed {
		t.Fatalf("phase 1: reply %v err %v, want an injected failure", s, err)
	}
}

func TestChaosProxyRejectsBadSchedule(t *testing.T) {
	if _, err := NewChaosProxy(ChaosProxyConfig{}); err == nil {
		t.Fatal("missing target accepted")
	}
	p, err := NewChaosProxy(ChaosProxyConfig{Target: "http://x"})
	if err != nil {
		t.Fatal(err)
	}
	setChaos(t, p, ChaosPhase{ErrorRate: 0.5})
	for _, rate := range []float64{1.5, -0.1} {
		if err := p.Set(ChaosPhase{ErrorRate: rate}); err == nil {
			t.Errorf("error rate %g accepted", rate)
		}
	}
	if ph := p.phase(); ph.ErrorRate != 0.5 {
		t.Fatalf("a rejected Set left phase %+v in force, want the error rate 0.5 before it", ph)
	}
}

// TestChaosProxySetRacesRelay switches faults while clients relay frames
// through the proxy, as a scenario's steps do under live load. Every frame
// gets a relayed or injected answer or a closed connection; run it under
// -race.
func TestChaosProxySetRacesRelay(t *testing.T) {
	b := startBackend(t, BackendConfig{Rate: 5000, Seed: 1})
	p := startChaos(t, ChaosProxyConfig{Target: b.URL(), Seed: 7})
	faults := []ChaosPhase{{ErrorRate: 0.5}, {Delay: time.Millisecond}, {Down: true}, {}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Down fails the exchange (back off before redialling);
				// any other fault answers.
				if _, err := sendWork(p.URL(), 20, 2*time.Second); err != nil {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	for k := 0; ; k++ {
		setChaos(t, p, faults[k%len(faults)])
		injected, dropped, _, proxied := p.Counts()
		if k >= 200 && injected > 0 && dropped > 0 && proxied > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	setChaos(t, p, ChaosPhase{})
	if replies, err := sendWork(p.URL(), 3, 5*time.Second); err != nil || len(replies) != 3 || replies[2].Status != statusOK {
		t.Fatalf("healed proxy: replies %+v err %v", replies, err)
	}
}

// setChaos sets the proxy's fault, failing the test on a rejected phase.
func setChaos(t *testing.T, p *ChaosProxy, ph ChaosPhase) {
	t.Helper()
	if err := p.Set(ph); err != nil {
		t.Fatal(err)
	}
}
