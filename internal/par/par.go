// Package par is the program's one way to fan out work. It has two forms,
// For (per index) and Chunks (contiguous ranges), and both draw helper
// goroutines from one process-wide budget of GOMAXPROCS−1 helpers, sized
// from GOMAXPROCS as it is when the program starts. Helpers are acquired
// without blocking and the caller's own share of the work never needs a
// token, so a fan never waits for the budget: a nested fan (chunked
// assignment inside the k-means restart fan) or a concurrent one (one per
// in-flight server request) gets whatever helpers are spare, down to none,
// and then runs as a plain serial loop on the caller instead of
// oversubscribing the CPU.
//
// Scheduling decides only which goroutine computes which index, never a
// value: fan bodies write index-addressed state only, and callers reduce
// serially in index order afterwards, so every result is identical for any
// number of helpers.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MinChunk is the length below which Chunks runs serially: splitting
// cheaper work costs more in goroutine hand-off than it saves.
const MinChunk = 256

// budget holds one token per helper goroutine the process may run at once.
// It is a pointer only so the test hook can swap it; helpers release their
// token to the channel they took it from.
var budget atomic.Pointer[chan struct{}]

func init() { setWorkers(runtime.GOMAXPROCS(0)) }

func setWorkers(workers int) {
	slots := make(chan struct{}, max(workers-1, 0))
	budget.Store(&slots)
}

// SetWorkersForTest sizes the budget for the given total worker count,
// caller included, and returns a function that restores the previous
// budget. It lets determinism tests force worker counts both below and
// above GOMAXPROCS; the program itself never calls it.
func SetWorkersForTest(workers int) (restore func()) {
	prev := budget.Load()
	setWorkers(workers)
	return func() { budget.Store(prev) }
}

// Fan telemetry: how much of the budget fans actually got. SerialFans
// rising while the server is busy is the saturation signal — fans that
// could have used helpers ran as serial loops.
var (
	Fans       atomic.Uint64 // For calls with n > 1, Chunks calls with n ≥ MinChunk
	SerialFans atomic.Uint64 // ... of those, ran serial (no spare budget)
	Helpers    atomic.Uint64 // helper goroutines granted
)

// For runs fn(0), …, fn(n−1) and returns once all have returned. The caller
// and up to n−1 helpers take indices one at a time, so uneven work (restarts
// that converge at different rounds, triangular matrix rows) stays
// balanced. fn must write only state owned by its index.
func For(n int, fn func(i int)) {
	if n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	slots, helpers := acquire(n - 1)
	spread(slots, helpers, n, fn)
}

// Chunks runs fn over disjoint contiguous ranges [lo, hi) that cover
// [0, n), one range per worker granted, and returns once all have returned.
// Below MinChunk it calls fn(0, n) directly. fn must write only state owned
// by its range.
func Chunks(n int, fn func(lo, hi int)) {
	if n < MinChunk {
		fn(0, n)
		return
	}
	slots, helpers := acquire(n - 1)
	size := (n + helpers) / (helpers + 1) // ⌈n / workers⌉
	spread(slots, helpers, (n+size-1)/size, func(p int) {
		lo := p * size
		fn(lo, min(lo+size, n))
	})
}

// acquire takes up to want helper tokens without blocking and returns the
// channel they came from together with how many it got.
func acquire(want int) (chan struct{}, int) {
	slots := *budget.Load()
	got := 0
	for got < want {
		select {
		case slots <- struct{}{}:
			got++
		default:
			return slots, got
		}
	}
	return slots, got
}

// spread runs fn(0..n-1) on the caller's share plus helpers goroutines,
// each holding one token of slots, and waits for all of them.
func spread(slots chan struct{}, helpers, n int, fn func(i int)) {
	Fans.Add(1)
	if helpers == 0 {
		SerialFans.Add(1)
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	Helpers.Add(uint64(helpers))
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	// The caller's share runs on one more goroutine while the caller waits.
	// A goroutine just started sits in its processor's run-next slot, which
	// an idle processor takes over only after a short sleep; a caller that
	// kept working would often finish a fan of small bodies alone
	// (BenchmarkKMeansFull ran about 20% slower that way on 2 vCPUs).
	var wg sync.WaitGroup
	wg.Add(helpers + 1)
	for g := range helpers + 1 {
		go func() {
			defer wg.Done()
			if g > 0 {
				defer func() { <-slots }() // the token is back before Wait returns
			}
			work()
		}()
	}
	wg.Wait()
}
