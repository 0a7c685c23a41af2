package serve

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// TokenBucket is a classic rate limiter: tokens accrue at FillRate per
// second up to Burst, and each admitted request spends one. It is safe for
// concurrent use.
type TokenBucket struct {
	mu     sync.Mutex
	fill   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
	now    func() time.Time // injectable clock for tests
}

// NewTokenBucket returns a bucket refilling at fill tokens/second with the
// given burst capacity, starting full. Non-positive fill or burst yields a
// nil bucket, which Allow treats as "always admit" — admission disabled.
func NewTokenBucket(fill, burst float64) *TokenBucket {
	if !(fill > 0) || !(burst > 0) {
		return nil
	}
	return &TokenBucket{fill: fill, burst: burst, tokens: burst, now: time.Now}
}

// Allow spends one token if available and reports whether the request is
// admitted. A nil bucket always admits.
func (tb *TokenBucket) Allow() bool {
	if tb == nil {
		return true
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.refill(tb.now())
	if tb.tokens < 1 {
		return false
	}
	tb.tokens--
	return true
}

// refill accrues the tokens of the time since last and advances last to
// now. A now older than last — a caller that read the clock before another
// caller took the lock with a later time — accrues nothing and leaves last
// where it is, so no interval is ever counted twice. Callers hold tb.mu.
func (tb *TokenBucket) refill(now time.Time) {
	if tb.last.IsZero() {
		tb.last = now
		return
	}
	if dt := now.Sub(tb.last).Seconds(); dt > 0 {
		tb.tokens += dt * tb.fill
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		tb.last = now
	}
}

// take refills and grants up to maxN tokens, but only when at least one
// whole token is available (a grant that cannot admit a request is useless).
// It returns the granted amount and, when the grant is zero, the time at
// which the bucket will next hold a whole token — the sharded bucket's
// deny-fast-path hint. The remainder stays in the bucket, so a chunk size of
// one leaves the bucket's state exactly as a plain Allow would.
func (tb *TokenBucket) take(now time.Time, maxN float64) (granted float64, nextAt time.Time) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.refill(now)
	if tb.tokens < 1 {
		wait := (1 - tb.tokens) / tb.fill
		return 0, tb.last.Add(time.Duration(wait * float64(time.Second)))
	}
	granted = math.Min(maxN, tb.tokens)
	tb.tokens -= granted
	return granted, time.Time{}
}

// admissionShard is one per-CPU stripe of the sharded admission bucket: a
// local token cache plus outcome counters, padded so adjacent shards never
// share a cache line. The mutex is effectively uncontended — the sync.Pool
// hands each P its own shard back — so an admission in the steady state is
// one uncontended lock and a float decrement.
type admissionShard struct {
	mu       sync.Mutex
	tokens   float64 // locally cached grant, pre-debited from the reservoir
	admitted atomic.Int64
	denied   atomic.Int64
	refills  atomic.Int64 // reservoir grants pulled through this shard
	_        [64]byte
}

// ShardedTokenBucket is the hot-path admission limiter: per-CPU shards (the
// metrics shards from the zero-alloc PR are the template) each hold a small
// cache of tokens pre-debited in chunks from one central reservoir — a plain
// TokenBucket. Because every cached token was already debited, the global
// invariant is exact: admissions over any window starting at construction
// never exceed fill·window + burst, no matter how the shards are hammered.
// With Chunk = 1 the shards cache nothing and every decision consults the
// reservoir, making the sharded bucket decision-for-decision identical to
// the unsharded reference (TestShardedBucketMatchesReference); larger chunks
// trade at most (shards−1)·Chunk tokens of skew for an amortized 1/Chunk
// reservoir touch rate. A shard that runs dry steals from its siblings
// before giving up, so cached tokens are never stranded, and a reservoir
// that reports empty publishes when its next whole token accrues so that
// overload-mode denials cost one atomic load instead of a reservoir lock.
type ShardedTokenBucket struct {
	reservoir *TokenBucket
	shards    []admissionShard
	chunk     float64
	pool      sync.Pool
	next      atomic.Uint32
	notBefore atomic.Int64 // unix nanos before which the reservoir has < 1 token
	now       func() time.Time
}

// NewShardedTokenBucket returns a sharded bucket refilling at fill
// tokens/second with the given burst, striped over shardCount() shards.
// Non-positive fill or burst yields a nil bucket, which Admit treats as
// "always admit" — admission disabled, exactly like the plain TokenBucket.
func NewShardedTokenBucket(fill, burst float64) *ShardedTokenBucket {
	return newShardedBucket(fill, burst, shardCount(), 0, time.Now)
}

// newShardedBucket is the test seam: explicit shard count, chunk size (0
// picks the default burst/(2·shards) clamped to [1, 32]) and clock.
func newShardedBucket(fill, burst float64, shards int, chunk float64, now func() time.Time) *ShardedTokenBucket {
	if !(fill > 0) || !(burst > 0) {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	if chunk <= 0 {
		chunk = math.Max(1, math.Min(32, burst/float64(2*shards)))
	}
	b := &ShardedTokenBucket{
		reservoir: &TokenBucket{fill: fill, burst: burst, tokens: burst, now: now},
		shards:    make([]admissionShard, shards),
		chunk:     chunk,
		now:       now,
	}
	b.pool.New = func() any {
		idx := b.next.Add(1) - 1
		return &b.shards[idx%uint32(shards)]
	}
	return b
}

// Admit spends one token if available and reports whether the request is
// admitted. A nil bucket always admits. Safe for concurrent use.
func (b *ShardedTokenBucket) Admit() bool {
	if b == nil {
		return true
	}
	sh := b.pool.Get().(*admissionShard)
	ok := b.admitOn(sh)
	b.pool.Put(sh)
	return ok
}

// admitOn runs one admission against a specific shard (the deterministic
// entry point the property tests drive directly).
func (b *ShardedTokenBucket) admitOn(sh *admissionShard) bool {
	sh.mu.Lock()
	if sh.tokens >= 1 {
		sh.tokens--
		sh.mu.Unlock()
		sh.admitted.Add(1)
		return true
	}
	sh.mu.Unlock()
	return b.admitSlow(sh)
}

// admitSlow is the cache-miss path: check the reservoir's published
// next-token time (overload fast deny), then pull a fresh chunk, then steal
// from sibling caches. Outcome counters land on the caller's shard.
func (b *ShardedTokenBucket) admitSlow(sh *admissionShard) bool {
	now := b.now()
	if nb := b.notBefore.Load(); nb != 0 && now.UnixNano() < nb {
		// The reservoir cannot have accrued a whole token yet: steal from a
		// sibling's cache or deny, without touching the reservoir lock.
		if b.stealFrom(sh) {
			return true
		}
		sh.denied.Add(1)
		return false
	}
	granted, nextAt := b.reservoir.take(now, b.chunk)
	if granted >= 1 {
		b.notBefore.Store(0)
		sh.refills.Add(1)
		sh.mu.Lock()
		sh.tokens += granted - 1
		sh.mu.Unlock()
		sh.admitted.Add(1)
		return true
	}
	b.notBefore.Store(nextAt.UnixNano())
	if b.stealFrom(sh) {
		return true
	}
	sh.denied.Add(1)
	return false
}

// stealFrom scans the sibling shards for a cached token so tokens granted to
// one CPU are never stranded while another CPU sheds load. With Chunk = 1
// nothing is ever cached and the scan is a no-op.
func (b *ShardedTokenBucket) stealFrom(sh *admissionShard) bool {
	if b.chunk <= 1 {
		return false
	}
	for i := range b.shards {
		o := &b.shards[i]
		o.mu.Lock()
		if o.tokens >= 1 {
			o.tokens--
			o.mu.Unlock()
			sh.admitted.Add(1)
			return true
		}
		o.mu.Unlock()
	}
	return false
}

// AdmissionStats is the merged-on-scrape view of the sharded bucket.
type AdmissionStats struct {
	// Admitted and Denied count admission outcomes across all shards.
	Admitted int64
	Denied   int64
	// Refills counts reservoir chunk grants; CachedTokens is the current
	// total sitting in shard caches (pre-debited, still spendable).
	Refills      int64
	CachedTokens float64
	Shards       int
}

// Stats merges the per-shard counters — the scrape path, mirroring the
// metrics shards' merge-on-scrape discipline. Nil-safe.
func (b *ShardedTokenBucket) Stats() AdmissionStats {
	if b == nil {
		return AdmissionStats{}
	}
	st := AdmissionStats{Shards: len(b.shards)}
	for i := range b.shards {
		sh := &b.shards[i]
		st.Admitted += sh.admitted.Load()
		st.Denied += sh.denied.Load()
		st.Refills += sh.refills.Load()
		sh.mu.Lock()
		st.CachedTokens += sh.tokens
		sh.mu.Unlock()
	}
	return st
}
