// Package serve is the live serving layer of the reproduction: a real
// networked load-balancing gateway (nashgate) that routes actual HTTP
// traffic by the paper's Nash equilibrium, plus the backend workers it
// balances across and an open-loop Poisson load generator to drive it.
//
// The pipeline mirrors a production serving stack:
//
//	request → admission (token bucket + saturation reject)
//	        → routing (per-user weighted sampling over s_ij, O(1) alias method)
//	        → forward (fixed-size binary frames on pooled TCP connections,
//	          upgraded from HTTP/1.1 once per connection; workhop.go)
//	        → per-backend bounded FCFS queue (exponential work at rate mu_j)
//	        → metrics (/metrics text format: counters, gauges, log histograms)
//
// The work hop carries everything a gateway sends a backend: jobs and health
// probes are frames on the same pooled connections. One control loop per
// gateway closes the paper's loop on measured state: every probe period it
// reads every backend's queue depth, inverts the depths to load estimates
// with internal/estimate (Remark 2 of the paper) and, with UpdateEvery set,
// lets one user at a time play a best response via internal/online's
// balancer, hot-swapping the routing table atomically — no user ever needs
// the others' arrival rates.
//
// Every stochastic element (service draws, routing picks, interarrival
// times) runs on seeded internal/rng streams, so a loadgen run's routing
// split is exactly reproducible and can be checked against the equilibrium
// fractions s_ij, while the measured response times validate against the
// M/M/1 closed form and the discrete-event simulator end-to-end (EXT8).
package serve
