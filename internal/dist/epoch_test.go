package dist

import (
	"sync"
	"testing"
)

func TestFenceAcceptsStrictlyNewer(t *testing.T) {
	var f Fence
	cases := []struct {
		epoch, version uint64
		want           bool
	}{
		{0, 0, false}, // the zero mark itself is not newer
		{1, 1, true},
		{1, 1, false}, // duplicate
		{1, 0, false}, // older version, same epoch
		{1, 2, true},
		{0, 9, false}, // superseded epoch, any version
		{2, 0, true},  // new epoch resets the version ordering
		{2, 1, true},
		{1, 99, false}, // straggler from the deposed epoch
	}
	for i, c := range cases {
		if got := f.Accept(c.epoch, c.version); got != c.want {
			t.Fatalf("step %d: Accept(%d, %d) = %v, want %v", i, c.epoch, c.version, got, c.want)
		}
	}
	if e, v := f.Current(); e != 2 || v != 1 {
		t.Fatalf("Current() = (%d, %d), want (2, 1)", e, v)
	}
}

// TestFenceConcurrentSingleWinner drives many goroutines at the same mark:
// exactly one Accept per distinct (epoch, version) may win, and the final
// mark is the maximum offered — the split-brain guard under concurrency.
func TestFenceConcurrentSingleWinner(t *testing.T) {
	var f Fence
	const n = 64
	wins := make([]int, n)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := 1; v <= n; v++ {
				if f.Accept(1, uint64(v)) {
					wins[v-1]++
				}
			}
		}()
	}
	wg.Wait()
	for v, w := range wins {
		if w != 1 {
			t.Fatalf("version %d accepted %d times, want exactly once", v+1, w)
		}
	}
	if e, v := f.Current(); e != 1 || v != n {
		t.Fatalf("Current() = (%d, %d), want (1, %d)", e, v, n)
	}
}
