package serve

import (
	"fmt"
	"math"
	"sync"
)

// shedConfig is the immutable degraded-mode admission state installed
// atomically with a routing table: when the surviving capacity cannot
// feasibly carry the offered load (offered >= saturationRho × capacity),
// the gateway admits only AdmitRate requests/second through its own token
// bucket and sheds the rest with 503 + Retry-After, keeping the survivors'
// utilization strictly below one instead of letting their queues diverge.
type shedConfig struct {
	// AdmitFrac is the admitted fraction of the offered load in [0, 1].
	AdmitFrac float64
	// AdmitRate is the admitted request rate, AdmitFrac × the offered rate
	// (DegradedRho × the surviving capacity), the bucket's fill rate.
	AdmitRate float64
	// RetryAfter is the advisory Retry-After value in whole seconds.
	RetryAfter string
	bucket     *TokenBucket
}

// newShedConfig builds the degraded-mode state for the given admitted rate
// and fraction. The bucket's burst is a quarter second of fill (floor 1):
// deep enough to pass Poisson clumps, shallow enough that a shed backlog
// cannot dump a capacity-sized burst onto the survivors.
func newShedConfig(admitRate, admitFrac, offered float64) *shedConfig {
	burst := math.Max(1, admitRate/4)
	// Advise callers to come back once roughly one bucket's worth of the
	// excess has cleared: excess rate relative to burst, at least 1s.
	retryAfter := 1
	if excess := offered - admitRate; excess > 0 {
		if s := int(math.Ceil(burst / excess)); s > retryAfter {
			retryAfter = s
		}
	}
	return &shedConfig{
		AdmitFrac:  admitFrac,
		AdmitRate:  admitRate,
		RetryAfter: fmt.Sprintf("%d", retryAfter),
		bucket:     NewTokenBucket(admitRate, burst),
	}
}

// Allow spends one degraded-mode admission token. A nil shedConfig (not
// degraded) always admits; an all-dead configuration (AdmitRate 0, nil
// bucket) never does.
func (s *shedConfig) Allow() bool {
	if s == nil {
		return true
	}
	if s.bucket == nil {
		return false
	}
	return s.bucket.Allow()
}

// retryBudget caps retry amplification with a token ratio: every first
// attempt earns Ratio tokens (capped), every retry spends one. Under a
// healthy backend set the budget never binds; during an outage retries are
// limited to a Ratio fraction of the request rate, so the retry storm
// cannot multiply the very load that is killing the backends. (The classic
// "retry budget" from production load-balancer practice — e.g. Finagle's —
// applied to the gateway's forward path.)
type retryBudget struct {
	mu     sync.Mutex
	ratio  float64
	tokens float64
	cap    float64
}

// newRetryBudget returns a budget earning ratio tokens per request, capped
// at 100x the ratio (a hundred requests' worth of burst). A non-positive
// ratio returns nil, which both methods treat as "budget disabled".
func newRetryBudget(ratio float64) *retryBudget {
	if !(ratio > 0) {
		return nil
	}
	return &retryBudget{ratio: ratio, cap: math.Max(1, 100*ratio)}
}

// onRequest earns the budget for one first attempt.
func (b *retryBudget) onRequest() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens = math.Min(b.cap, b.tokens+b.ratio)
	b.mu.Unlock()
}

// tryRetry spends one token, reporting whether the retry is allowed. A nil
// budget always allows.
func (b *retryBudget) tryRetry() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
