package par

import (
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// TestFormsCoverEveryIndexOnce checks both forms call their body exactly once
// per index, for lengths on both sides of MinChunk and for worker counts
// below and above GOMAXPROCS, and that every helper token is back in the
// budget once the fan returns.
func TestFormsCoverEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		restore := SetWorkersForTest(workers)
		for _, n := range []int{0, 1, 2, 7, MinChunk - 1, MinChunk, 1000} {
			hits := make([]atomic.Int32, n)
			For(n, func(i int) { hits[i].Add(1) })
			Chunks(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if h := hits[i].Load(); h != 2 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times, want once per form", workers, n, i, h-1)
				}
			}
			if held := len(*budget.Load()); held != 0 {
				t.Fatalf("workers=%d n=%d: %d helper tokens still held after the fan returned", workers, n, held)
			}
		}
		restore()
	}
}

// TestFanTakesSpareHelpers checks the grant: a fan on an idle budget gets
// min(n−1, workers−1) helpers, and a one-worker budget runs every fan
// serially.
func TestFanTakesSpareHelpers(t *testing.T) {
	for _, tc := range []struct{ workers, n, helpers int }{
		{1, 10, 0}, {3, 10, 2}, {8, 3, 2}, {8, 10, 7},
	} {
		t.Run(strconv.Itoa(tc.workers)+"x"+strconv.Itoa(tc.n), func(t *testing.T) {
			defer SetWorkersForTest(tc.workers)()
			fans, serial, helpers := Fans.Load(), SerialFans.Load(), Helpers.Load()
			For(tc.n, func(int) {})
			if got := Fans.Load() - fans; got != 1 {
				t.Errorf("Fans rose by %d, want 1", got)
			}
			if got := Helpers.Load() - helpers; got != uint64(tc.helpers) {
				t.Errorf("Helpers rose by %d, want %d", got, tc.helpers)
			}
			wantSerial := uint64(0)
			if tc.helpers == 0 {
				wantSerial = 1
			}
			if got := SerialFans.Load() - serial; got != wantSerial {
				t.Errorf("SerialFans rose by %d, want %d", got, wantSerial)
			}
		})
	}
}

// TestNestedFanStaysWithinBudget runs a chunked fan inside every body of a
// per-index fan and checks that the number of bodies running at once never
// exceeds the budget's worker count: the inner fans get only the helpers
// the outer fan left spare, so nesting cannot oversubscribe the CPU.
func TestNestedFanStaysWithinBudget(t *testing.T) {
	const workers = 4
	defer SetWorkersForTest(workers)()
	var running, peak atomic.Int32
	For(2*workers, func(int) {
		Chunks(workers*MinChunk, func(lo, hi int) {
			r := running.Add(1)
			for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
			}
			// Hold the body a little so that overlapping bodies are seen.
			time.Sleep(50 * time.Microsecond)
			running.Add(-1)
		})
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("%d bodies ran at once, budget allows %d", p, workers)
	}
}
