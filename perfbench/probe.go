package main

import (
	"slices"
	"time"
)

// probeSink keeps the compiler from removing the probe kernel.
var probeSink uint64

// hostProbe times a fixed single-thread CPU kernel in the benchmark's own
// code and returns the median of five timings. It is a diagnostic that tells
// a slower host from a slower program; no metric is ever divided by it.
func hostProbe() time.Duration {
	ts := make([]time.Duration, 5)
	for i := range ts {
		start := time.Now()
		probeSink += probeKernel()
		ts[i] = time.Since(start)
	}
	slices.Sort(ts)
	return ts[len(ts)/2]
}

// probeKernel mixes a 32 KiB table with xorshift: integer work that fits in
// the L1 cache, so it measures the core, not memory.
func probeKernel() uint64 {
	var table [4096]uint64
	x := uint64(88172645463325252)
	for round := 0; round < 500; round++ {
		for i := range table {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			table[i] += x
		}
	}
	var sum uint64
	for _, v := range table {
		sum += v
	}
	return sum
}
