package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// procStat is a point-in-time reading of the Go runtime and the process's
// CPU time. Benchmark, gateway and backends share one process, so every
// figure covers all three.
type procStat struct {
	cpu       time.Duration // user + system CPU time (getrusage)
	allocObjs uint64
	allocByte uint64
	gcCycles  uint64
	gcPause   time.Duration
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readProc() procStat {
	s := make([]metrics.Sample, len(procSamples))
	copy(s, procSamples)
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStat{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocObjs: s[0].Value.Uint64(),
		allocByte: s[1].Value.Uint64(),
		gcCycles:  s[2].Value.Uint64(),
		gcPause:   time.Duration(ms.PauseTotalNs),
	}
}

// procDelta is the runtime's work between two readings.
type procDelta struct {
	cpu                  time.Duration
	allocObjs, allocByte uint64
	gcCycles             uint64
	gcPause              time.Duration
}

func (a procStat) to(b procStat) procDelta {
	return procDelta{
		cpu:       b.cpu - a.cpu,
		allocObjs: b.allocObjs - a.allocObjs,
		allocByte: b.allocByte - a.allocByte,
		gcCycles:  b.gcCycles - a.gcCycles,
		gcPause:   b.gcPause - a.gcPause,
	}
}

// procMetrics renders a delta per unit of work (requests or solves).
func procMetrics(d procDelta, work int64) []metric {
	if work < 1 {
		work = 1
	}
	w := float64(work)
	return []metric{
		{name: "proc.cpu_us_per_req", unit: "us", value: float64(d.cpu) / 1e3 / w, n: work},
		{name: "proc.allocs_per_req", unit: "count", value: float64(d.allocObjs) / w, n: work},
		{name: "proc.alloc_bytes_per_req", unit: "B", value: float64(d.allocByte) / w, n: work},
		{name: "proc.gc_cycles", unit: "count", value: float64(d.gcCycles), n: work},
		{name: "proc.gc_pause_ms", unit: "ms", value: float64(d.gcPause) / 1e6, n: work},
	}
}

// heapSampler tracks the live heap, the objects the collector found
// reachable at the end of its latest cycle, by polling runtime/metrics
// (which does not stop the world). The live heap, unlike all heap objects,
// does not swing with how much garbage waits for the next cycle. It keeps
// the peak of each one-second window.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	start time.Time
	peaks []uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), start: time.Now()}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(s)
		v := s[0].Value.Uint64()
		w := int(time.Since(h.start) / time.Second)
		h.mu.Lock()
		for len(h.peaks) <= w {
			h.peaks = append(h.peaks, 0)
		}
		if v > h.peaks[w] {
			h.peaks[w] = v
		}
		h.mu.Unlock()
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the median over the run's
// one-second windows of each window's peak live heap, in MiB: the peak of a
// typical second, which one unlucky collection cannot move.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	var mib []float64
	for _, p := range h.peaks {
		if p > 0 {
			mib = append(mib, float64(p)/(1<<20))
		}
	}
	return median(mib)
}
