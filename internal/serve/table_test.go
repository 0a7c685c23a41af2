package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"nashlb/internal/game"
	"nashlb/internal/testutil"
)

// TestInstallTableFencing pins the generation-fencing contract: a table can
// only advance the (epoch, version) mark, validation runs before the fence
// (a malformed push must not burn a mark), and ErrStaleTable identifies a
// superseded reign.
func TestInstallTableFencing(t *testing.T) {
	g, err := NewGateway(GatewayConfig{
		Backends: []string{"http://127.0.0.1:1/a", "http://127.0.0.1:1/b"},
		Rates:    []float64{50, 50},
		Arrivals: []float64{10},
	})
	if err != nil {
		t.Fatal(err)
	}
	even := game.Profile{{0.5, 0.5}}
	if err := g.InstallTable(Table{Epoch: 2, Version: 1, Profile: even}); err != nil {
		t.Fatalf("first install: %v", err)
	}
	if err := g.InstallTable(Table{Epoch: 1, Version: 99, Profile: even}); !errors.Is(err, ErrStaleTable) {
		t.Fatalf("older epoch: err = %v, want ErrStaleTable", err)
	}
	if err := g.InstallTable(Table{Epoch: 2, Version: 1, Profile: even}); !errors.Is(err, ErrStaleTable) {
		t.Fatalf("replayed version: err = %v, want ErrStaleTable", err)
	}
	// A malformed table (wrong row count) must fail WITHOUT advancing the
	// fence: the next valid mark is still installable.
	if err := g.InstallTable(Table{Epoch: 3, Version: 1, Profile: game.Profile{{0.5, 0.5}, {1, 0}}}); err == nil || errors.Is(err, ErrStaleTable) {
		t.Fatalf("malformed table: err = %v, want validation error", err)
	}
	if err := g.InstallTable(Table{Epoch: 3, Version: 1, Profile: even}); err != nil {
		t.Fatalf("valid install after rejected malformed push: %v", err)
	}
	if e, v := g.TableEpoch(); e != 3 || v != 1 {
		t.Fatalf("fence at (%d, %d), want (3, 1)", e, v)
	}
}

// TestInstallsDoNotInterleave races a control-plane install against a
// health re-solve, round after round. Whichever lands last, the route table
// and the degraded-mode admission must come from the same install: the
// control table puts everything on backend 0 and sheds, the re-solve over
// both 50/s machines splits the 60/s load and does not.
func TestInstallsDoNotInterleave(t *testing.T) {
	g, err := NewGateway(GatewayConfig{
		Backends:   []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		Rates:      []float64{50, 50},
		Arrivals:   []float64{30, 30},
		ProbeEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := Table{Epoch: 1, Profile: game.Profile{{1, 0}, {1, 0}}, AdmitFrac: 0.5, OfferedRate: 60}
	for round := 1; round <= 300; round++ {
		ctrl.Version = uint64(round)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := g.InstallTable(ctrl); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			g.reequilibrate([]float64{1, 1})
		}()
		wg.Wait()
		if fromCtrl := g.Profile()[0][1] == 0; fromCtrl != g.Degraded() {
			t.Fatalf("round %d: profile %v with degraded %v", round, g.Profile(), g.Degraded())
		}
	}
}

// TestInstallTableDrainsBackends: a control-plane table carrying Active
// flags must take the drained machines out of rotation — routed around even
// when the profile still names them — and the drain must be visible in the
// /backends debug view.
func TestInstallTableDrainsBackends(t *testing.T) {
	b0 := startBackend(t, BackendConfig{Rate: 200, Seed: 9100})
	b1 := startBackend(t, BackendConfig{Rate: 200, Seed: 9101})
	g, err := NewGateway(GatewayConfig{
		Backends: []string{b0.URL(), b1.URL()},
		Rates:    []float64{200, 200},
		Arrivals: []float64{20},
		Seed:     9102,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })

	err = g.InstallTable(Table{
		Epoch: 1, Version: 1,
		Profile: game.Profile{{0.5, 0.5}},
		Active:  []bool{true, false},
	})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 2 * time.Second}
	for k := 0; k < 40; k++ {
		status, err := chaosGet(t, client, g.URL()+"/submit?user=0")
		if err != nil || status != http.StatusOK {
			t.Fatalf("request %d: status %d err %v", k, status, err)
		}
	}
	snap := g.Metrics()
	if snap.BackendRequests[1] != 0 {
		t.Fatalf("drained backend served %d requests", snap.BackendRequests[1])
	}
	if snap.BackendRequests[0] != 40 {
		t.Fatalf("active backend served %d of 40", snap.BackendRequests[0])
	}
}

// TestBackendsEndpointJSON exercises the /backends debug handler end to end:
// application/json content type, breaker state with a live cooldown
// countdown, the installed table's fence mark, and the draining flag.
func TestBackendsEndpointJSON(t *testing.T) {
	live := startBackend(t, BackendConfig{Rate: 200, Seed: 9200})
	g, err := NewGateway(GatewayConfig{
		// The second backend is a dead port: probes fail, the breaker opens.
		Backends:     []string{live.URL(), "http://127.0.0.1:1"},
		Rates:        []float64{200, 200},
		Arrivals:     []float64{10},
		Seed:         9201,
		ProbeEvery:   25 * time.Millisecond,
		ProbeTimeout: 100 * time.Millisecond,
		Breaker:      BreakerConfig{Failures: 2, Cooldown: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })

	if err := g.InstallTable(Table{Epoch: 4, Version: 2, Profile: game.Profile{{1, 0}}}); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, 5*time.Second, "breaker never opened on the dead backend", func() bool {
		return g.Metrics().BreakerStates[1] == "open"
	})
	g.Drain()

	resp, err := http.Get(g.URL() + "/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var st BackendsStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Backends) != 2 {
		t.Fatalf("got %d backends, want 2", len(st.Backends))
	}
	if st.Backends[1].State != "open" {
		t.Fatalf("dead backend state %q, want open", st.Backends[1].State)
	}
	if got := st.Backends[1].CooldownRemainingSeconds; got <= 0 || got > 60 {
		t.Fatalf("cooldown remaining %.2fs, want within (0, 60]", got)
	}
	if st.Backends[0].CooldownRemainingSeconds != 0 {
		t.Fatalf("closed breaker reports cooldown %.2fs", st.Backends[0].CooldownRemainingSeconds)
	}
	if st.TableEpoch != 4 || st.TableVersion != 2 {
		t.Fatalf("table mark (%d, %d), want (4, 2)", st.TableEpoch, st.TableVersion)
	}
	if st.TableInstalls != 1 {
		t.Fatalf("table installs = %d, want 1", st.TableInstalls)
	}
	if !st.Draining {
		t.Fatal("draining flag not reported")
	}

	// A drained gateway refuses new admissions with Retry-After.
	dresp, err := http.Get(g.URL() + "/submit?user=0")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusServiceUnavailable || dresp.Header.Get("Retry-After") == "" {
		t.Fatalf("drained submit: status %d Retry-After %q, want 503 with Retry-After",
			dresp.StatusCode, dresp.Header.Get("Retry-After"))
	}
}

// TestRouteTableAliasSharing pins the class-dedup of alias samplers: users
// with bitwise-identical strategy rows share one *rng.Alias, so a table
// over k distinct rows allocates k samplers no matter how many users it
// routes — the serving-side half of the megascale class aggregation.
func TestRouteTableAliasSharing(t *testing.T) {
	const users, n = 300, 4
	rows := []game.Strategy{
		{0.5, 0.5, 0, 0},
		{0.25, 0.25, 0.25, 0.25},
		{0, 0, 0.9, 0.1},
	}
	p := make(game.Profile, users)
	for i := range p {
		p[i] = rows[i%len(rows)].Clone()
	}
	table, err := newRouteTable(p, n)
	if err != nil {
		t.Fatal(err)
	}
	if table.classes != len(rows) {
		t.Fatalf("classes = %d, want %d", table.classes, len(rows))
	}
	for i := range p {
		if table.classOf[i] != table.classOf[i%len(rows)] {
			t.Fatalf("user %d does not share its class (got %d, want %d)",
				i, table.classOf[i], table.classOf[i%len(rows)])
		}
	}
	// Distinct rows must map to distinct classes (and samplers).
	if table.classOf[0] == table.classOf[1] || table.classOf[1] == table.classOf[2] {
		t.Fatal("distinct rows share a class")
	}
	// One sampler and one fallback order per class, not per user.
	if got := len(table.samplers); got != len(rows) {
		t.Fatalf("samplers = %d, want %d", got, len(rows))
	}
	if got := len(table.fallback); got != len(rows) {
		t.Fatalf("fallback orders = %d, want %d", got, len(rows))
	}
}
