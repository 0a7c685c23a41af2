package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// sampleArena returns room for n samples outside the Go heap, in anonymous
// memory the kernel commits only as pages are touched. The benchmark shares
// its process with the gateway and backends, so request records kept on the
// heap would show in peak_heap_mb as if the system had allocated them.
// reqSample holds no pointers, so the collector need not see it.
func sampleArena(n int) ([]reqSample, error) {
	size := n * int(unsafe.Sizeof(reqSample{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("sample arena of %d bytes: %w", size, err)
	}
	return unsafe.Slice((*reqSample)(unsafe.Pointer(&mem[0])), n)[:0], nil
}
