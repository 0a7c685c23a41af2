// Package queueing implements the M/M/1 queueing model underlying the
// paper's system model: each computer is an M/M/1 queue (Poisson arrivals,
// exponential service, FCFS, run-to-completion) characterized by its average
// processing rate mu.
//
// All closed forms below are standard (Kleinrock, Queueing Systems Vol. 1,
// 1975 — reference [9] of the paper) and serve both as the analytic
// evaluation path and as ground truth for validating the discrete-event
// simulator in internal/cluster.
package queueing

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnstable is returned when an arrival rate meets or exceeds the service
// rate, so no steady state exists.
var ErrUnstable = errors.New("queueing: arrival rate >= service rate (unstable queue)")

// MM1 describes a single M/M/1 station.
type MM1 struct {
	Mu     float64 // service rate (jobs/second)
	Lambda float64 // arrival rate (jobs/second)
}

// Validate checks that the station parameters admit a steady state.
func (q MM1) Validate() error {
	if q.Mu <= 0 {
		return fmt.Errorf("queueing: non-positive service rate %g", q.Mu)
	}
	if q.Lambda < 0 {
		return fmt.Errorf("queueing: negative arrival rate %g", q.Lambda)
	}
	if q.Lambda >= q.Mu {
		return fmt.Errorf("%w: lambda=%g mu=%g", ErrUnstable, q.Lambda, q.Mu)
	}
	return nil
}

// Utilization returns rho = lambda/mu.
func (q MM1) Utilization() float64 { return q.Lambda / q.Mu }

// ResponseTime returns the expected sojourn (response) time
// F = 1/(mu - lambda), the expression the paper uses for the expected
// response time at a computer (its equation (1)). It returns +Inf for an
// unstable station.
func (q MM1) ResponseTime() float64 {
	if q.Lambda >= q.Mu {
		return math.Inf(1)
	}
	return 1 / (q.Mu - q.Lambda)
}

// WaitingTime returns the expected time in queue (excluding service),
// W = rho/(mu - lambda).
func (q MM1) WaitingTime() float64 {
	if q.Lambda >= q.Mu {
		return math.Inf(1)
	}
	return q.Utilization() / (q.Mu - q.Lambda)
}

// JobsInSystem returns the expected number of jobs in the system,
// L = rho/(1-rho). By Little's law L = lambda * ResponseTime.
func (q MM1) JobsInSystem() float64 {
	rho := q.Utilization()
	if rho >= 1 {
		return math.Inf(1)
	}
	return rho / (1 - rho)
}

// JobsInQueue returns the expected queue length excluding the job in
// service, Lq = rho^2/(1-rho).
func (q MM1) JobsInQueue() float64 {
	rho := q.Utilization()
	if rho >= 1 {
		return math.Inf(1)
	}
	return rho * rho / (1 - rho)
}

// ProbN returns the steady-state probability of exactly n jobs in the
// system, (1-rho) rho^n.
func (q MM1) ProbN(n int) float64 {
	rho := q.Utilization()
	if rho >= 1 || n < 0 {
		return 0
	}
	return (1 - rho) * math.Pow(rho, float64(n))
}

// ResponseTimeQuantile returns the p-quantile of the sojourn time, which is
// exponential with rate (mu - lambda): t_p = -ln(1-p)/(mu-lambda).
func (q MM1) ResponseTimeQuantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 || q.Lambda >= q.Mu {
		return math.Inf(1)
	}
	return -math.Log(1-p) / (q.Mu - q.Lambda)
}

// LittleLawResidual returns |L - lambda*T| for the station; it is zero in
// exact arithmetic and serves as a model self-check.
func (q MM1) LittleLawResidual() float64 {
	return math.Abs(q.JobsInSystem() - q.Lambda*q.ResponseTime())
}

// SystemResponseTime returns the overall expected response time of a set of
// parallel M/M/1 stations carrying loads lambdas, weighted by the load each
// station carries:
//
//	D = (1/sum lambda_j) * sum_j lambda_j / (mu_j - lambda_j).
//
// This is the objective the GOS scheme minimizes. Stations with zero load
// contribute nothing. It returns +Inf if any loaded station is unstable and
// an error on malformed input.
func SystemResponseTime(mus, lambdas []float64) (float64, error) {
	if len(mus) != len(lambdas) {
		return 0, fmt.Errorf("queueing: %d rates vs %d loads", len(mus), len(lambdas))
	}
	var total, weighted float64
	for j := range mus {
		if lambdas[j] < 0 {
			return 0, fmt.Errorf("queueing: negative load %g at station %d", lambdas[j], j)
		}
		if lambdas[j] == 0 {
			continue
		}
		if mus[j] <= 0 {
			return 0, fmt.Errorf("queueing: station %d loaded but has rate %g", j, mus[j])
		}
		total += lambdas[j]
		if lambdas[j] >= mus[j] {
			return math.Inf(1), nil
		}
		weighted += lambdas[j] / (mus[j] - lambdas[j])
	}
	if total == 0 {
		return 0, nil
	}
	return weighted / total, nil
}
