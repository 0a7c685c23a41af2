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
// (nashlb-work/1: 8-byte request frames, 17-byte replies, one job per
// frame) and answers a plain request 426; /queue reports the current
// depth; /healthz is a liveness probe. Gateway and backends must run the
// same build: an older backend fails the upgrade.
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
// The control listener adds /fleet (replica status), /fleet/heartbeat,
// /fleet/report, /fleet/table and /fleet/machines.
//
// On SIGINT or SIGTERM every mode drains gracefully: admission stops (new
// requests get 503 + Retry-After), in-flight requests finish, and a fleet
// replica advertises the drain so peers elect around it before the process
// exits. A second signal forces immediate exit.
package main

import (
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
	var (
		backendFlag  = flag.Bool("backend", false, "run a backend worker node instead of the gateway")
		listenFlag   = flag.String("listen", "127.0.0.1:0", "listen address")
		seedFlag     = flag.Uint64("seed", 2002, "seed for routing (gateway) or service-time (backend) streams")
		backendsFlag = flag.String("backends", "", "gateway: comma-separated backend base URLs")
		ratesFlag    = flag.String("rates", "", "gateway: backend service rates mu_j (jobs/s), one per backend")
		arrivalsFlag = flag.String("arrivals", "", "gateway: user arrival rates phi_i (jobs/s)")
		profileFlag  = flag.String("profile", "nash", "gateway: initial routing profile, nash or ps")
		pollFlag     = flag.Duration("poll", 0, "gateway: re-equilibration poll period (0 = static routing)")
		updateFlag   = flag.Int("update-every", 1, "gateway: play one best response every this many polls")
		alphaFlag    = flag.Float64("alpha", 0.2, "gateway: EWMA weight for queue-depth observations")
		fillFlag     = flag.Float64("fill", 0, "gateway: token-bucket fill rate (req/s; 0 disables admission)")
		burstFlag    = flag.Float64("burst", 0, "gateway: token-bucket burst size")
		timeoutFlag  = flag.Duration("timeout", 5*time.Second, "gateway: per-attempt backend timeout")
		retriesFlag  = flag.Int("retries", 2, "gateway: retries after backend transport failures")
		probeFlag    = flag.Duration("probe", 250*time.Millisecond, "gateway: health probe period (0 disables the self-healing layer)")
		failuresFlag = flag.Int("breaker-failures", 3, "gateway: consecutive failures that open a backend's breaker")
		cooldownFlag = flag.Duration("breaker-cooldown", time.Second, "gateway: open-breaker wait before a half-open trial")
		rampFlag     = flag.Int("ramp-steps", 3, "gateway: health epochs over which a recovered backend re-admits")
		degradedFlag = flag.Float64("degraded-rho", 0.9, "gateway: admitted utilization while shedding in degraded mode")
		budgetFlag   = flag.Float64("retry-budget", 0.1, "gateway: retry budget as a fraction of requests (negative disables)")
		idleFlag     = flag.Int("max-idle-per-host", 0, "gateway: idle connections kept per backend (0 = default 512)")
		rateFlag     = flag.Float64("rate", 0, "backend: service rate mu (jobs/s)")
		queueCapFlag = flag.Int("queue-cap", serve.DefaultQueueCap, "backend: jobs-in-system bound")

		fleetFlag        = flag.Bool("fleet", false, "run as a fleet replica (needs -fleet-id and -fleet-peers)")
		fleetIDFlag      = flag.Int("fleet-id", 0, "fleet: this replica's id (indexes -fleet-peers)")
		fleetPeersFlag   = flag.String("fleet-peers", "", "fleet: comma-separated control URLs for every replica, ordered by id")
		fleetListenFlag  = flag.String("fleet-listen", "127.0.0.1:0", "fleet: control-plane listen address")
		heartbeatFlag    = flag.Duration("heartbeat", 50*time.Millisecond, "fleet: peer heartbeat period")
		solveEveryFlag   = flag.Duration("solve-every", 250*time.Millisecond, "fleet: leader supervision epoch")
		autoscaleFlag    = flag.Bool("autoscale", false, "fleet: drain idle capacity / activate standbys automatically")
		scaleLowFlag     = flag.Float64("scale-low", 0.3, "fleet: utilization below which the autoscaler drains")
		scaleHighFlag    = flag.Float64("scale-high", 0.8, "fleet: utilization above which the autoscaler activates")
		scaleSustainFlag = flag.Int("scale-sustain", 3, "fleet: consecutive epochs a threshold must hold before scaling")
		minActiveFlag    = flag.Int("min-active", 1, "fleet: floor on active machines")
		quorumFlag       = flag.Int("quorum", 0, "fleet: nodes (self included) this replica must heartbeat to lead (0 = strict majority)")
		durableFlag      = flag.String("fleet-durable-dir", "", "fleet: directory for the crash-durable control-plane snapshot (empty = in-memory only)")
	)
	flag.Parse()

	if *backendFlag {
		runBackend(*rateFlag, *queueCapFlag, *seedFlag, *listenFlag)
		return
	}
	if *fleetFlag {
		runFleet(fleetArgs{
			id:         *fleetIDFlag,
			peers:      *fleetPeersFlag,
			listen:     *fleetListenFlag,
			backends:   *backendsFlag,
			rates:      *ratesFlag,
			arrivals:   *arrivalsFlag,
			heartbeat:  *heartbeatFlag,
			solveEvery: *solveEveryFlag,
			quorum:     *quorumFlag,
			durableDir: *durableFlag,
			seed:       *seedFlag,
			autoscale: fleet.AutoscaleConfig{
				Enabled:   *autoscaleFlag,
				Low:       *scaleLowFlag,
				High:      *scaleHighFlag,
				Sustain:   *scaleSustainFlag,
				MinActive: *minActiveFlag,
			},
			gateway: serve.GatewayConfig{
				Seed:        *seedFlag,
				FillRate:    *fillFlag,
				Burst:       *burstFlag,
				Timeout:     *timeoutFlag,
				Retries:     *retriesFlag,
				ProbeEvery:  *probeFlag,
				Breaker:     serve.BreakerConfig{Failures: *failuresFlag, Cooldown: *cooldownFlag},
				RampSteps:   *rampFlag,
				DegradedRho: *degradedFlag,
				RetryBudget: *budgetFlag,
				Addr:        *listenFlag,
			},
		})
		return
	}
	runGateway(gatewayArgs{
		backends: *backendsFlag,
		rates:    *ratesFlag,
		arrivals: *arrivalsFlag,
		profile:  *profileFlag,
		listen:   *listenFlag,
		seed:     *seedFlag,
		poll:     *pollFlag,
		update:   *updateFlag,
		alpha:    *alphaFlag,
		fill:     *fillFlag,
		burst:    *burstFlag,
		timeout:  *timeoutFlag,
		retries:  *retriesFlag,
		probe:    *probeFlag,
		failures: *failuresFlag,
		cooldown: *cooldownFlag,
		ramp:     *rampFlag,
		degraded: *degradedFlag,
		budget:   *budgetFlag,
		maxIdle:  *idleFlag,
	})
}

func runBackend(rate float64, queueCap int, seed uint64, listen string) {
	if rate <= 0 {
		log.Fatal("-backend needs -rate > 0")
	}
	b, err := serve.NewBackend(serve.BackendConfig{
		Rate:     rate,
		QueueCap: queueCap,
		Seed:     seed,
		Addr:     listen,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := b.Start(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backend serving mu=%g on %s\n", rate, b.URL())
	waitForInterrupt()
	if err := b.Close(); err != nil {
		log.Fatal(err)
	}
}

type gatewayArgs struct {
	backends, rates, arrivals, profile, listen string
	seed                                       uint64
	poll                                       time.Duration
	update                                     int
	alpha, fill, burst                         float64
	timeout                                    time.Duration
	retries                                    int
	probe, cooldown                            time.Duration
	failures, ramp                             int
	degraded, budget                           float64
	maxIdle                                    int
}

func runGateway(a gatewayArgs) {
	if a.backends == "" {
		log.Fatal("gateway mode needs -backends (or use -backend for a worker)")
	}
	var urls []string
	for _, u := range strings.Split(a.backends, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			log.Fatal("-backends: empty URL in list")
		}
		urls = append(urls, strings.TrimSuffix(u, "/"))
	}
	rates, err := cli.ParseFloats(a.rates)
	if err != nil {
		log.Fatalf("-rates: %v", err)
	}
	arrivals, err := cli.ParseFloats(a.arrivals)
	if err != nil {
		log.Fatalf("-arrivals: %v", err)
	}
	sys, err := game.NewSystem(rates, arrivals)
	if err != nil {
		log.Fatal(err)
	}

	var profile game.Profile
	switch a.profile {
	case "ps":
		profile = game.ProportionalProfile(sys)
		fmt.Printf("routing by proportional profile, predicted D = %.6gs\n",
			sys.OverallResponseTime(profile))
	case "nash":
		res, err := core.Solve(sys, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if !res.Converged {
			log.Fatalf("NASH did not converge in %d rounds", res.Rounds)
		}
		profile = res.Profile
		fmt.Printf("NASH converged in %d rounds, predicted D = %.6gs\n",
			res.Rounds, res.OverallTime)
	default:
		log.Fatalf("-profile %q: want nash or ps", a.profile)
	}

	g, err := serve.NewGateway(serve.GatewayConfig{
		Backends:    urls,
		Rates:       rates,
		Arrivals:    arrivals,
		Profile:     profile,
		Seed:        a.seed,
		FillRate:    a.fill,
		Burst:       a.burst,
		PollEvery:   a.poll,
		UpdateEvery: a.update,
		Alpha:       a.alpha,
		Timeout:     a.timeout,
		Retries:     a.retries,
		ProbeEvery:  a.probe,
		Breaker:     serve.BreakerConfig{Failures: a.failures, Cooldown: a.cooldown},
		RampSteps:   a.ramp,
		DegradedRho: a.degraded,
		RetryBudget: a.budget,

		MaxIdleConnsPerHost: a.maxIdle,

		Addr: a.listen,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := g.Start(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gateway serving %d users over %d backends on %s\n",
		len(arrivals), len(urls), g.URL())
	waitForInterrupt()
	// Graceful drain: refuse new admissions immediately, then let Close wait
	// out the in-flight requests.
	g.Drain()
	if err := g.Close(); err != nil {
		log.Fatal(err)
	}
}

// fleetArgs bundles the fleet-mode flags.
type fleetArgs struct {
	id         int
	peers      string
	listen     string
	backends   string
	rates      string
	arrivals   string
	heartbeat  time.Duration
	solveEvery time.Duration
	quorum     int
	durableDir string
	seed       uint64
	autoscale  fleet.AutoscaleConfig
	gateway    serve.GatewayConfig
}

func runFleet(a fleetArgs) {
	if a.backends == "" || a.peers == "" {
		log.Fatal("fleet mode needs -backends, -rates, -arrivals and -fleet-peers")
	}
	rates, err := cli.ParseFloats(a.rates)
	if err != nil {
		log.Fatalf("-rates: %v", err)
	}
	arrivals, err := cli.ParseFloats(a.arrivals)
	if err != nil {
		log.Fatalf("-arrivals: %v", err)
	}
	var urls []string
	for _, u := range strings.Split(a.backends, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			log.Fatal("-backends: empty URL in list")
		}
		urls = append(urls, strings.TrimSuffix(u, "/"))
	}
	if len(urls) != len(rates) {
		log.Fatalf("%d backends but %d rates", len(urls), len(rates))
	}
	machines := make([]fleet.Machine, len(urls))
	for j, u := range urls {
		machines[j] = fleet.Machine{URL: u, Rate: rates[j], Active: true}
	}
	var peers []string
	for _, p := range strings.Split(a.peers, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			log.Fatal("-fleet-peers: empty URL in list")
		}
		peers = append(peers, strings.TrimSuffix(p, "/"))
	}

	n, err := fleet.NewNode(fleet.Config{
		ID:             a.id,
		Machines:       machines,
		Arrivals:       arrivals,
		Gateway:        a.gateway,
		HeartbeatEvery: a.heartbeat,
		SolveEvery:     a.solveEvery,
		Quorum:         a.quorum,
		DurableDir:     a.durableDir,
		Seed:           a.seed,
		Autoscale:      a.autoscale,
		Addr:           a.listen,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := n.Start(peers); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet replica %d of %d: gateway %s, control %s\n",
		a.id, len(peers), n.GatewayURL(), n.ControlURL())
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
