package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"nashlb/internal/game"
	"nashlb/internal/rng"
	"nashlb/internal/testutil"
)

// fakeClock drives a TokenBucket deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestTokenBucket(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	tb := NewTokenBucket(10, 3) // 10 tokens/s, burst 3
	if tb == nil {
		t.Fatal("NewTokenBucket returned nil for valid config")
	}
	tb.now = clock.now

	for i := 0; i < 3; i++ {
		if !tb.Allow() {
			t.Fatalf("burst request %d refused", i)
		}
	}
	if tb.Allow() {
		t.Fatal("request beyond burst admitted")
	}
	clock.advance(100 * time.Millisecond) // refills exactly one token
	if !tb.Allow() {
		t.Fatal("request after refill refused")
	}
	if tb.Allow() {
		t.Fatal("second request after single-token refill admitted")
	}
	clock.advance(time.Hour) // refill caps at burst
	for i := 0; i < 3; i++ {
		if !tb.Allow() {
			t.Fatalf("post-cap request %d refused", i)
		}
	}
	if tb.Allow() {
		t.Fatal("request beyond capped burst admitted")
	}
}

func TestTokenBucketDisabled(t *testing.T) {
	if tb := NewTokenBucket(0, 5); tb != nil {
		t.Fatal("zero fill rate should disable the bucket")
	}
	var tb *TokenBucket
	for i := 0; i < 100; i++ {
		if !tb.Allow() {
			t.Fatal("nil bucket must always admit")
		}
	}
}

func TestBackendServesWork(t *testing.T) {
	b, err := NewBackend(BackendConfig{Rate: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	replies, err := sendWork(b.URL(), 5, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range replies {
		if r.ID != uint64(i+1) || r.Status != statusOK {
			t.Fatalf("frame %d: reply %+v", i+1, r)
		}
		if r.Value <= 0 {
			t.Fatalf("frame %d: non-positive service time %g", i+1, r.Value)
		}
	}
	if got := b.Served(); got != 5 {
		t.Fatalf("Served() = %d, want 5", got)
	}
	if b.BusyTime() <= 0 {
		t.Fatal("BusyTime() not accumulated")
	}

	st, err := statusOf(b.URL(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != statusOK || st.Value != 0 || b.Served() != 5 {
		t.Fatalf("status reply %+v after %d served", st, b.Served())
	}
}

func TestBackendQueueFull(t *testing.T) {
	// One slot: the job in service occupies it, so a frame on a second
	// connection must get the queue-full reply.
	b, err := NewBackend(BackendConfig{Rate: 5, QueueCap: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if s, err := workStatusOf(b.URL(), 10*time.Second); err != nil || s != statusOK {
			t.Errorf("first job: %v %v", s, err)
		}
	}()
	// Wait until the first job occupies the queue.
	testutil.WaitFor(t, 2*time.Second, "first job never entered the queue", func() bool {
		return b.Depth() > 0
	})

	s, err := workStatusOf(b.URL(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s != statusQueueFull {
		t.Fatalf("overflow frame: reply %s, want queue full", s)
	}
	if b.Rejected() != 1 {
		t.Fatalf("Rejected() = %d, want 1", b.Rejected())
	}
	wg.Wait()
}

// newTestCluster starts n fast in-process backends and a gateway over them.
func newTestCluster(t *testing.T, cfg GatewayConfig, rates []float64) (*Gateway, []*Backend) {
	t.Helper()
	backends := make([]*Backend, len(rates))
	urls := make([]string, len(rates))
	for j, mu := range rates {
		b, err := NewBackend(BackendConfig{Rate: mu, Seed: uint64(100 + j)})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		backends[j] = b
		urls[j] = b.URL()
	}
	cfg.Backends = urls
	cfg.Rates = rates
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g, backends
}

func TestGatewayRoutesByProfile(t *testing.T) {
	// Static profile, sequential requests from one user: the routing picks
	// must replay the alias sampler's deterministic sequence exactly.
	profile := game.Profile{{0.25, 0.75}}
	const seed = 42
	g, _ := newTestCluster(t, GatewayConfig{
		Arrivals: []float64{100},
		Profile:  profile,
		Seed:     seed,
	}, []float64{2000, 2000})

	const reqs = 60
	got := make([]int, 0, reqs)
	for k := 0; k < reqs; k++ {
		resp, err := http.Get(g.URL() + "/submit?user=0")
		if err != nil {
			t.Fatal(err)
		}
		var body SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", k, resp.StatusCode)
		}
		if body.User != 0 {
			t.Fatalf("request %d: echoed user %d", k, body.User)
		}
		got = append(got, body.Backend)
	}

	// Replay the same stream offline.
	alias, err := rng.NewAlias(profile[0])
	if err != nil {
		t.Fatal(err)
	}
	stream := rng.NewSource(seed).Stream("route/0")
	for k := 0; k < reqs; k++ {
		if want := alias.Pick(stream); got[k] != want {
			t.Fatalf("request %d routed to backend %d, want %d", k, got[k], want)
		}
	}

	snap := g.Metrics()
	var total int64
	for _, c := range snap.BackendRequests {
		total += c
	}
	if total != reqs || snap.Admitted != reqs {
		t.Fatalf("counters: requests %d admitted %d, want %d", total, snap.Admitted, reqs)
	}
	if snap.UserCount[0] != reqs || snap.UserMeanSeconds[0] <= 0 {
		t.Fatalf("histogram: count %d mean %g", snap.UserCount[0], snap.UserMeanSeconds[0])
	}
}

func TestGatewayAdmission(t *testing.T) {
	g, _ := newTestCluster(t, GatewayConfig{
		Arrivals: []float64{100},
		FillRate: 0.001, // effectively no refill during the test
		Burst:    2,
	}, []float64{2000})

	codes := make([]int, 3)
	for k := range codes {
		resp, err := http.Get(g.URL() + "/submit?user=0")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		codes[k] = resp.StatusCode
	}
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Fatalf("burst requests got %v, want 200s", codes[:2])
	}
	if codes[2] != http.StatusTooManyRequests {
		t.Fatalf("over-burst request got %d, want 429", codes[2])
	}
	if snap := g.Metrics(); snap.RejectedRate != 1 {
		t.Fatalf("RejectedRate = %d, want 1", snap.RejectedRate)
	}
}

func TestGatewayBadUser(t *testing.T) {
	g, _ := newTestCluster(t, GatewayConfig{
		Arrivals: []float64{100},
	}, []float64{2000})

	for _, path := range []string{"/submit", "/submit?user=7", "/submit?user=x"} {
		resp, err := http.Get(g.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
	if snap := g.Metrics(); snap.RejectedUser != 3 {
		t.Fatalf("RejectedUser = %d, want 3", snap.RejectedUser)
	}
}

func TestGatewaySaturationReject(t *testing.T) {
	g, _ := newTestCluster(t, GatewayConfig{
		Arrivals: []float64{100},
	}, []float64{2000, 2000})

	// Feed the estimator queue depths far beyond the rho >= 0.95 knee
	// (L = 19); smoothing needs a few sweeps to get there from zero.
	for k := 0; k < 40; k++ {
		g.updateSaturation([]int{500, 500})
	}
	if !g.Saturated() {
		t.Fatal("gateway not saturated after huge queue observations")
	}
	resp, err := http.Get(g.URL() + "/submit?user=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated submit: status %d, want 503", resp.StatusCode)
	}
	if snap := g.Metrics(); snap.RejectedSat != 1 {
		t.Fatalf("RejectedSat = %d, want 1", snap.RejectedSat)
	}

	// Draining queues must clear the flag and admit again.
	for k := 0; k < 60; k++ {
		g.updateSaturation([]int{0, 0})
	}
	if g.Saturated() {
		t.Fatal("gateway still saturated after queues drained")
	}
	resp, err = http.Get(g.URL() + "/submit?user=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain submit: status %d, want 200", resp.StatusCode)
	}
}

func TestGatewayMetricsEndpoint(t *testing.T) {
	g, _ := newTestCluster(t, GatewayConfig{
		Arrivals: []float64{100, 50},
	}, []float64{2000, 2000})

	for k := 0; k < 4; k++ {
		resp, err := http.Get(fmt.Sprintf("%s/submit?user=%d", g.URL(), k%2))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(g.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"nashgate_admitted_total 4",
		`nashgate_rejected_total{reason="ratelimit"} 0`,
		`nashgate_backend_requests_total{backend="0"}`,
		`nashgate_backend_queue_depth{backend="1"}`,
		"nashgate_rebalances_total 0",
		`nashgate_response_seconds_bucket{user="0",le="+Inf"} 2`,
		`nashgate_response_seconds_count{user="1"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
}

func TestGatewayRoutingEndpoint(t *testing.T) {
	profile := game.Profile{{0.5, 0.5}}
	g, _ := newTestCluster(t, GatewayConfig{
		Arrivals: []float64{100},
		Profile:  profile,
	}, []float64{2000, 2000})

	resp, err := http.Get(g.URL() + "/routing")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RoutingStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Profile) != 1 || len(st.Profile[0]) != 2 {
		t.Fatalf("routing profile shape %v", st.Profile)
	}
	if st.Profile[0][0] != 0.5 || st.Saturated {
		t.Fatalf("routing status = %+v", st)
	}
}

func TestGatewayRebalances(t *testing.T) {
	// Two equal backends, one user, deliberately skewed initial routing:
	// the re-equilibration loop must move the profile toward the 50/50
	// equilibrium as it observes the (empty) queues.
	g, _ := newTestCluster(t, GatewayConfig{
		Arrivals:    []float64{100},
		Profile:     game.Profile{{0.95, 0.05}},
		ProbeEvery:  10 * time.Millisecond,
		UpdateEvery: 1,
		Alpha:       0.5,
	}, []float64{2000, 2000})

	testutil.WaitFor(t, 5*time.Second, "re-equilibration loop never installed a new profile", func() bool {
		return g.Metrics().Rebalances > 0
	})
	if snap := g.Metrics(); snap.Polls == 0 {
		t.Fatal("re-equilibration loop never completed a poll sweep")
	}
	p := g.Profile()
	if diff := p[0][0] - p[0][1]; diff < -0.1 || diff > 0.1 {
		t.Fatalf("profile %v did not converge toward 50/50", p[0])
	}
}

func TestLoadgenAgainstGateway(t *testing.T) {
	g, backends := newTestCluster(t, GatewayConfig{
		Arrivals: []float64{200, 100},
	}, []float64{3000, 3000})

	res, err := RunLoad(LoadConfig{
		Target:   g.URL(),
		Arrivals: []float64{200, 100},
		Duration: 500 * time.Millisecond,
		Warmup:   50 * time.Millisecond,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, sent := range res.Sent {
		if sent == 0 {
			t.Fatalf("user %d sent nothing", i)
		}
		if res.OK[i] != sent || res.Failed[i] != 0 || res.Rejected[i] != 0 {
			t.Fatalf("user %d: sent %d ok %d rejected %d failed %d",
				i, sent, res.OK[i], res.Rejected[i], res.Failed[i])
		}
		if res.MeanSeconds[i] <= 0 || res.MinSeconds[i] <= 0 || res.MaxSeconds[i] < res.MinSeconds[i] {
			t.Fatalf("user %d: mean %g min %g max %g",
				i, res.MeanSeconds[i], res.MinSeconds[i], res.MaxSeconds[i])
		}
	}
	if res.Mean <= 0 {
		t.Fatalf("overall mean %g", res.Mean)
	}
	var served int64
	for _, b := range backends {
		served += b.Served()
	}
	// Backends saw every request, warmup included.
	if served < res.TotalSent {
		t.Fatalf("backends served %d < post-warmup sent %d", served, res.TotalSent)
	}
}
