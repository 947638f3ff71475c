package seedrand

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// resetMemo empties the memo so a test sees fresh seeds.
func resetMemo() {
	memoMu.Lock()
	clear(memo)
	memoMu.Unlock()
}

// drawMix draws an interleaved sequence of every method the program uses
// (and Uint64, which reads the source directly) from r, far past the
// memoized prefix.
func drawMix(r *rand.Rand) []int64 {
	var out []int64
	for i := 0; i < 300; i++ {
		switch i % 6 {
		case 0:
			out = append(out, r.Int63())
		case 1:
			out = append(out, int64(r.Uint64()))
		case 2:
			out = append(out, int64(r.Float64()*(1<<53)))
		case 3:
			out = append(out, int64(r.Intn(1+i)))
		case 4:
			for _, v := range r.Perm(1 + i%17) {
				out = append(out, int64(v))
			}
		case 5:
			out = append(out, r.Int63n(1<<40+int64(i)), int64(r.Int31()))
		}
	}
	return out
}

// TestNewMatchesMathRand pins the replayed generator against
// rand.New(rand.NewSource(seed)) over long interleaved sequences, for more
// seeds than the memo holds: the first memoSeeds seeds replay a prefix, the
// rest fall through to a plain source, and both must draw identically.
func TestNewMatchesMathRand(t *testing.T) {
	resetMemo()
	seeds := []int64{0, 1, -1, 42, 2011, 7919, 1 << 40, -(1 << 62)}
	for s := int64(0); len(seeds) < 2*memoSeeds; s++ {
		seeds = append(seeds, 1000+s*7919)
	}
	for round := 0; round < 2; round++ { // the second round replays memoized prefixes
		for _, seed := range seeds {
			want := drawMix(rand.New(rand.NewSource(seed)))
			got := drawMix(New(seed))
			if !slices.Equal(got, want) {
				t.Fatalf("round %d seed %d: draw sequence diverges from math/rand", round, seed)
			}
		}
	}
	memoMu.Lock()
	defer memoMu.Unlock()
	if len(memo) != memoSeeds {
		t.Fatalf("memo holds %d seeds, want exactly %d", len(memo), memoSeeds)
	}
}

// TestPrefixDrawsMaskInt63 checks the replayed Int63 values directly
// against the source's, inside the prefix where they come from the memo.
func TestPrefixDrawsMaskInt63(t *testing.T) {
	got, want := New(3), rand.New(rand.NewSource(3))
	for i := 0; i < prefixLen; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("draw %d: Int63 %x, want %x", i, g, w)
		}
	}
}

// TestReseedRestarts checks Rand.Seed on a replayed generator: it restarts
// the sequence at the new seed, mid-prefix or past it.
func TestReseedRestarts(t *testing.T) {
	r := New(5)
	for i := 0; i < prefixLen+10; i++ {
		r.Int63()
	}
	r.Seed(9)
	if got, want := drawMix(r), drawMix(rand.New(rand.NewSource(9))); !slices.Equal(got, want) {
		t.Fatal("Seed did not restart the sequence at the new seed")
	}
}

// TestConcurrentCallersOneSeed runs many goroutines that each take a
// generator for the same fresh seed at once — racing the memo insert — and
// checks every sequence. Run under -race.
func TestConcurrentCallersOneSeed(t *testing.T) {
	const seed = -987654321
	resetMemo()
	want := drawMix(rand.New(rand.NewSource(seed)))
	var wg sync.WaitGroup
	errs := make(chan int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if !slices.Equal(drawMix(New(seed)), want) {
					errs <- g
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for g := range errs {
		t.Errorf("goroutine %d drew a diverging sequence", g)
	}
}

// BenchmarkNew is the per-restart cost the memo removes: a fresh generator
// and the handful of draws a k-means++ seeding takes.
func BenchmarkNew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := New(42)
		r.Intn(100)
		r.Float64()
	}
}

// BenchmarkMathRandNew is the same work on rand.NewSource, for comparison.
func BenchmarkMathRandNew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(42))
		r.Intn(100)
		r.Float64()
	}
}
