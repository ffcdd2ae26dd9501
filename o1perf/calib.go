package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Host speed on a shared machine drifts by tens of percent over
// minutes. A run therefore also times a fixed reference kernel that
// belongs to the benchmark, not to the program under test, and scales
// its host-time metrics to a reference host: one on which the kernel
// takes refNominal seconds. A change to the program cannot move the
// kernel, so it cannot move the scaling.
const (
	refNominal = 0.010
	refEvery   = 300 * time.Millisecond // least host time between two timings
	refWords   = 1 << 21                // 16 MiB: beyond the host's private caches
)

// refBuf is the kernel's working set. It lives outside the Go heap, so
// it shows in no heap metric.
var refBuf = mapWords(refWords)

func mapWords(n int) []uint64 {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]uint64, n)
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
}

// refSink keeps the kernel's result alive.
var refSink uint64

// reference times the kernel: dependent pseudo-random reads and writes
// over refBuf, the cache-missing access pattern of the simulator's
// metadata. It allocates nothing.
func reference() float64 {
	t0 := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 1<<19; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x ^ refBuf[x&(refWords-1)]) & (refWords - 1)
		refBuf[j] += x
	}
	refSink += refBuf[x&(refWords-1)]
	return time.Since(t0).Seconds()
}
