// Command nashgate is the live serving gateway: it routes real HTTP traffic
// across backend workers by the Nash equilibrium of the paper's load
// balancing game, with admission control, live re-equilibration from polled
// queue depths, and Prometheus-style /metrics.
//
// Gateway mode (default). Give it the backend URLs and the game (rates and
// arrivals); it solves NASH and serves:
//
//	nashgate -backends http://h1:8081,http://h2:8082 -rates 10,50 \
//	         -arrivals 2x12 [-listen :8080] [-profile nash|ps] \
//	         [-poll 500ms] [-update-every 1] [-alpha 0.2] \
//	         [-fill 100 -burst 200] [-seed 2002]
//
// The self-healing layer (on by default) probes backends, trips per-backend
// circuit breakers, re-solves the game over survivors, and sheds load when
// the surviving capacity is infeasible:
//
//	[-probe 250ms] [-breaker-failures 3] [-breaker-cooldown 1s] \
//	[-ramp-steps 3] [-degraded-rho 0.9] [-retry-budget 0.1]
//
// Endpoints: /submit?user=i (or X-User header) serves one request;
// /metrics is the text exposition; /routing reports the live profile;
// /backends reports breaker states, weights and probe counters;
// /healthz is a liveness probe.
//
// Backend mode (-backend) runs one worker node — an M/M/1 station serving
// exponential work at -rate through a bounded FCFS queue:
//
//	nashgate -backend -rate 50 [-listen 127.0.0.1:8081] [-queue-cap 512] \
//	         [-seed 2002]
//
// Its endpoints: /work upgrades to the gateway's binary work hop
// (nashlb-work/2: 9-byte job or status request frames, 17-byte replies)
// and answers a plain request 426; /healthz is a liveness probe for
// process supervisors. Gateway and backends must run the same build: an
// older backend fails the upgrade.
//
// Fleet mode (-fleet) runs this gateway as one replica of a nashgate fleet:
// N gateways serve concurrently over the same backend universe, elect a
// solver leader (lowest alive id), aggregate each other's live arrival-rate
// estimates into the game's user weights, and distribute fenced routing
// tables. Backends join and leave at runtime via POST /fleet/machines on the
// control listener; -autoscale drains idle capacity automatically:
//
//	nashgate -fleet -fleet-id 0 \
//	         -fleet-peers http://g0:9090,http://g1:9090,http://g2:9090 \
//	         -fleet-listen :9090 -backends ... -rates ... -arrivals ... \
//	         [-heartbeat 50ms] [-solve-every 250ms] \
//	         [-autoscale] [-scale-low 0.3] [-scale-high 0.8] \
//	         [-scale-sustain 3] [-min-active 1]
//
// A replica's gateway runs with every gateway flag above, as in gateway
// mode: -listen, -seed, -fill/-burst, -timeout, -retries, the self-healing
// flags, -retry-budget, -max-idle-per-host and -poll/-update-every/-alpha.
// -backends, -rates and -arrivals give the machine universe and the nominal
// game, and -profile does not apply: the leader's tables route, and a
// replica's -poll loop only keeps its saturation estimate fresh.
//
// The control listener adds /fleet (replica status), /fleet/heartbeat,
// /fleet/report, /fleet/table and /fleet/machines.
//
// On SIGINT or SIGTERM every mode drains gracefully: admission stops (new
// requests get 503 + Retry-After), in-flight requests finish, and a fleet
// replica advertises the drain so peers elect around it before the process
// exits. A second signal forces immediate exit.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nashlb/internal/cli"
	"nashlb/internal/core"
	"nashlb/internal/fleet"
	"nashlb/internal/game"
	"nashlb/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nashgate: ")
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	switch {
	case c.backend != nil:
		runBackend(*c.backend)
	case c.node != nil:
		runFleet(*c.node, c.peers)
	default:
		runGateway(c.gateway, c.profile)
	}
}

// command is one parsed command line: the gateway settings, which gateway
// and fleet mode both run with, and the settings of the mode chosen.
type command struct {
	gateway serve.GatewayConfig
	profile string               // gateway mode: nash or ps
	backend *serve.BackendConfig // backend mode
	node    *fleet.Config        // fleet mode, its Gateway the gateway settings
	peers   []string             // fleet mode
}

// parseFlags reads a command line. The gateway flags set one
// serve.GatewayConfig, Backends, Rates and Arrivals included; gateway mode
// serves it, and fleet mode hands it to the node as its gateway template.
func parseFlags(args []string) (command, error) {
	var (
		c  command
		g  = &c.gateway
		b  serve.BackendConfig
		n  fleet.Config
		fs = flag.NewFlagSet("nashgate", flag.ExitOnError)
	)
	backendMode := fs.Bool("backend", false, "run a backend worker node instead of the gateway")
	fs.StringVar(&g.Addr, "listen", "127.0.0.1:0", "listen address")
	fs.Uint64Var(&g.Seed, "seed", 2002, "seed for routing (gateway) or service-time (backend) streams")
	backends := fs.String("backends", "", "gateway: comma-separated backend base URLs")
	rates := fs.String("rates", "", "gateway: backend service rates mu_j (jobs/s), one per backend")
	arrivals := fs.String("arrivals", "", "gateway: user arrival rates phi_i (jobs/s)")
	fs.StringVar(&c.profile, "profile", "nash", "gateway: initial routing profile, nash or ps")
	fs.DurationVar(&g.PollEvery, "poll", 0, "gateway: re-equilibration poll period (0 = static routing)")
	fs.IntVar(&g.UpdateEvery, "update-every", 1, "gateway: play one best response every this many polls")
	fs.Float64Var(&g.Alpha, "alpha", 0.2, "gateway: EWMA weight for queue-depth observations")
	fs.Float64Var(&g.FillRate, "fill", 0, "gateway: token-bucket fill rate (req/s; 0 disables admission)")
	fs.Float64Var(&g.Burst, "burst", 0, "gateway: token-bucket burst size")
	fs.DurationVar(&g.Timeout, "timeout", 5*time.Second, "gateway: per-attempt backend timeout")
	fs.IntVar(&g.Retries, "retries", 2, "gateway: retries after backend transport failures")
	fs.DurationVar(&g.ProbeEvery, "probe", 250*time.Millisecond, "gateway: health probe period (0 disables the self-healing layer)")
	fs.IntVar(&g.Breaker.Failures, "breaker-failures", 3, "gateway: consecutive failures that open a backend's breaker")
	fs.DurationVar(&g.Breaker.Cooldown, "breaker-cooldown", time.Second, "gateway: open-breaker wait before a half-open trial")
	fs.IntVar(&g.RampSteps, "ramp-steps", 3, "gateway: health epochs over which a recovered backend re-admits")
	fs.Float64Var(&g.DegradedRho, "degraded-rho", 0.9, "gateway: admitted utilization while shedding in degraded mode, in (0, 0.95); other values fall back to 0.9")
	fs.Float64Var(&g.RetryBudget, "retry-budget", 0.1, "gateway: retry budget as a fraction of requests (negative disables)")
	fs.IntVar(&g.MaxIdleConnsPerHost, "max-idle-per-host", 0, "gateway: idle connections kept per backend (0 = default 512)")
	fs.Float64Var(&b.Rate, "rate", 0, "backend: service rate mu (jobs/s)")
	fs.IntVar(&b.QueueCap, "queue-cap", serve.DefaultQueueCap, "backend: jobs-in-system bound")

	fleetMode := fs.Bool("fleet", false, "run as a fleet replica (needs -fleet-id and -fleet-peers)")
	fs.IntVar(&n.ID, "fleet-id", 0, "fleet: this replica's id (indexes -fleet-peers)")
	peers := fs.String("fleet-peers", "", "fleet: comma-separated control URLs for every replica, ordered by id")
	fs.StringVar(&n.Addr, "fleet-listen", "127.0.0.1:0", "fleet: control-plane listen address")
	fs.DurationVar(&n.HeartbeatEvery, "heartbeat", 50*time.Millisecond, "fleet: peer heartbeat period")
	fs.DurationVar(&n.SolveEvery, "solve-every", 250*time.Millisecond, "fleet: leader supervision epoch")
	fs.BoolVar(&n.Autoscale.Enabled, "autoscale", false, "fleet: drain idle capacity / activate standbys automatically")
	fs.Float64Var(&n.Autoscale.Low, "scale-low", 0.3, "fleet: utilization below which the autoscaler drains")
	fs.Float64Var(&n.Autoscale.High, "scale-high", 0.8, "fleet: utilization above which the autoscaler activates")
	fs.IntVar(&n.Autoscale.Sustain, "scale-sustain", 3, "fleet: consecutive epochs a threshold must hold before scaling")
	fs.IntVar(&n.Autoscale.MinActive, "min-active", 1, "fleet: floor on active machines")
	fs.IntVar(&n.Quorum, "quorum", 0, "fleet: nodes (self included) this replica must heartbeat to lead (0 = strict majority)")
	fs.StringVar(&n.DurableDir, "fleet-durable-dir", "", "fleet: directory for the crash-durable control-plane snapshot (empty = in-memory only)")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits here

	if *backendMode {
		if !(b.Rate > 0) {
			return c, errors.New("-backend needs -rate > 0")
		}
		b.Seed, b.Addr = g.Seed, g.Addr
		c.backend = &b
		return c, nil
	}
	if *backends == "" || *fleetMode && *peers == "" {
		return c, errors.New("gateway mode needs -backends, -rates and -arrivals, fleet mode -fleet-peers too (or use -backend for a worker)")
	}
	var err error
	if g.Backends, err = urlList(*backends); err != nil {
		return c, fmt.Errorf("-backends: %w", err)
	}
	if g.Rates, err = cli.ParseFloats(*rates); err != nil {
		return c, fmt.Errorf("-rates: %w", err)
	}
	if g.Arrivals, err = cli.ParseFloats(*arrivals); err != nil {
		return c, fmt.Errorf("-arrivals: %w", err)
	}
	if len(g.Backends) != len(g.Rates) {
		return c, fmt.Errorf("%d backends but %d rates", len(g.Backends), len(g.Rates))
	}
	if !*fleetMode {
		return c, nil
	}
	if c.peers, err = urlList(*peers); err != nil {
		return c, fmt.Errorf("-fleet-peers: %w", err)
	}
	n.Machines = make([]fleet.Machine, len(g.Backends))
	for j, u := range g.Backends {
		n.Machines[j] = fleet.Machine{URL: u, Rate: g.Rates[j], Active: true}
	}
	n.Arrivals, n.Seed, n.Gateway = g.Arrivals, g.Seed, c.gateway
	c.node = &n
	return c, nil
}

// urlList splits a comma-separated list of base URLs, dropping each one's
// trailing slash.
func urlList(s string) ([]string, error) {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			return nil, errors.New("empty URL in list")
		}
		urls = append(urls, strings.TrimSuffix(u, "/"))
	}
	return urls, nil
}

func runBackend(cfg serve.BackendConfig) {
	b, err := serve.NewBackend(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := b.Start(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backend serving mu=%g on %s\n", cfg.Rate, b.URL())
	waitForInterrupt()
	if err := b.Close(); err != nil {
		log.Fatal(err)
	}
}

func runGateway(cfg serve.GatewayConfig, profile string) {
	sys, err := game.NewSystem(cfg.Rates, cfg.Arrivals)
	if err != nil {
		log.Fatal(err)
	}

	switch profile {
	case "ps":
		cfg.Profile = game.ProportionalProfile(sys)
		fmt.Printf("routing by proportional profile, predicted D = %.6gs\n",
			sys.OverallResponseTime(cfg.Profile))
	case "nash":
		res, err := core.Solve(sys, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if !res.Converged {
			log.Fatalf("NASH did not converge in %d rounds", res.Rounds)
		}
		cfg.Profile = res.Profile
		fmt.Printf("NASH converged in %d rounds, predicted D = %.6gs\n",
			res.Rounds, res.OverallTime)
	default:
		log.Fatalf("-profile %q: want nash or ps", profile)
	}

	g, err := serve.NewGateway(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := g.Start(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gateway serving %d users over %d backends on %s\n",
		len(cfg.Arrivals), len(cfg.Backends), g.URL())
	waitForInterrupt()
	// Graceful drain: refuse new admissions immediately, then let Close wait
	// out the in-flight requests.
	g.Drain()
	if err := g.Close(); err != nil {
		log.Fatal(err)
	}
}

func runFleet(cfg fleet.Config, peers []string) {
	n, err := fleet.NewNode(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := n.Start(peers); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet replica %d of %d: gateway %s, control %s\n",
		cfg.ID, len(peers), n.GatewayURL(), n.ControlURL())
	waitForInterrupt()
	// Stop drains the gateway, advertises the drain on the heartbeat so
	// peers elect around this replica, finishes in-flight requests, and
	// only then closes the servers — the fleet deregistration.
	if err := n.Stop(); err != nil {
		log.Fatal(err)
	}
}

// waitForInterrupt blocks until SIGINT or SIGTERM. A second signal during
// the graceful drain forces an immediate exit.
func waitForInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	fmt.Println("shutting down (signal again to force)")
	go func() {
		<-ch
		fmt.Println("forced exit")
		os.Exit(1)
	}()
}
