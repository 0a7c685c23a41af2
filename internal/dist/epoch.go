package dist

import "sync"

// Fence is the generation-fencing rule of the ring's token recovery,
// factored out as a reusable primitive: state is stamped with a
// monotonically increasing (epoch, version) pair, and a receiver accepts an
// update only when it is strictly newer than everything it has already
// applied. An epoch names one authority incarnation (a ring leader's token
// generation, a fleet leader's reign); the version orders updates within
// it. Anything older is a straggler from a superseded authority and must be
// discarded — exactly how runLeader discards stale-generation tokens, and
// how a gateway fleet rejects routing tables from a deposed leader so a
// partitioned old leader cannot cause split-brain installs.
//
// Fence is safe for concurrent use.
type Fence struct {
	mu      sync.Mutex
	epoch   uint64
	version uint64
}

// Accept reports whether (epoch, version) is strictly newer than the
// current mark and, if so, advances the mark to it. Newer means a higher
// epoch, or the same epoch with a higher version. The zero Fence accepts
// any (epoch, version) other than (0, 0).
func (f *Fence) Accept(epoch, version uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if epoch < f.epoch || (epoch == f.epoch && version <= f.version) {
		return false
	}
	f.epoch, f.version = epoch, version
	return true
}

// Current returns the last accepted (epoch, version).
func (f *Fence) Current() (epoch, version uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch, f.version
}
