package dist

import (
	"time"

	"nashlb/internal/rng"
)

// Backoff produces capped exponential retry delays with seeded jitter. It
// replaces the fixed-sleep retry loops of the TCP ring transport and the
// state-service client: delays double from Base up to Max, and when a
// jitter stream is attached each delay is drawn uniformly from [d/2, d) so
// simultaneous reconnect attempts decorrelate — deterministically, because
// the stream is seeded (every chaos run stays replicable).
//
// A Backoff is not safe for concurrent use; its owners (tcpTransport,
// RemoteStore) serialize access behind their own locks.
type Backoff struct {
	// Base is the first delay (2ms when zero).
	Base time.Duration
	// Max caps the delay growth (250ms when zero).
	Max time.Duration
	// R drives the jitter; nil yields full, un-jittered delays.
	R *rng.Stream

	attempt int
}

// Next returns the delay to sleep before the next retry and advances the
// growth schedule.
func (b *Backoff) Next() time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	if max <= 0 {
		max = 250 * time.Millisecond
	}
	d := max
	if b.attempt < 32 { // beyond 2^32 * base the cap always wins
		if v := base << uint(b.attempt); v > 0 && v < max {
			d = v
		}
	}
	b.attempt++
	if b.R != nil {
		half := d / 2
		d = half + time.Duration(b.R.Float64()*float64(d-half))
	}
	return d
}

// Reset restarts the growth schedule after a successful operation.
func (b *Backoff) Reset() { b.attempt = 0 }

// AttemptsFor returns how many retries fit inside the given time budget:
// the largest k such that the sum of the first k un-jittered delays of this
// schedule (from the current attempt position, normally 0 after a Reset)
// does not exceed budget. Jitter only ever shrinks a delay, so the bound is
// conservative in the safe direction: a caller sleeping AttemptsFor(budget)
// delays never sleeps longer than budget in total. Callers that also pay a
// per-attempt cost (an HTTP timeout, say) should subtract it from the
// budget themselves. The count is capped at 64 — with any positive Base the
// cumulative sleep past that is astronomically beyond any real budget — so
// an effectively infinite budget cannot produce an unbounded retry horizon.
func (b *Backoff) AttemptsFor(budget time.Duration) int {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	if max <= 0 {
		max = 250 * time.Millisecond
	}
	var total time.Duration
	for k := 0; k < 64; k++ {
		attempt := b.attempt + k
		d := max
		if attempt < 32 {
			if v := base << uint(attempt); v > 0 && v < max {
				d = v
			}
		}
		total += d
		if total > budget {
			return k
		}
	}
	return 64
}
