package cache

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// single-shard cache so LRU order is exact and observable.
func singleShard(capacity int) *Cache[string, int] {
	return NewSharded[string, int](capacity, 1, StringHash)
}

func TestLRUEvictionOrder(t *testing.T) {
	c := singleShard(3)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("c", 3)

	// Touch "a" so "b" becomes the least recently used.
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	if evicted := c.Add("d", 4); !evicted {
		t.Fatal("adding over capacity should evict")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (least recently used)")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}

	// Updating an existing key must not evict and must refresh recency.
	if evicted := c.Add("c", 30); evicted {
		t.Fatal("updating existing key must not evict")
	}
	c.Add("e", 5) // evicts "a": the Get loop above left order [d c a] → c refreshed → [c d a]
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted after c was refreshed")
	}
	if v, ok := c.Get("c"); !ok || v != 30 {
		t.Fatalf("Get(c) = %d, %v; want 30, true", v, ok)
	}

	st := c.Stats()
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d; want 2", st.Evictions)
	}
	if st.Entries != 3 || st.Capacity != 3 {
		t.Fatalf("entries/capacity = %d/%d; want 3/3", st.Entries, st.Capacity)
	}
}

func TestPeekDoesNotCountOrPromote(t *testing.T) {
	c := singleShard(2)
	c.Add("a", 1)
	c.Add("b", 2) // recency: [b a]
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d, %v; want 1, true", v, ok)
	}
	if _, ok := c.Peek("missing"); ok {
		t.Fatal("Peek(missing) should report absent")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek must not count: hits/misses = %d/%d", st.Hits, st.Misses)
	}
	// Peek did not promote "a": adding over capacity still evicts it.
	c.Add("c", 3)
	if _, ok := c.Peek("a"); ok {
		t.Fatal("a should have been evicted; Peek must not refresh recency")
	}
}

func TestLRURemoveAndPurge(t *testing.T) {
	c := singleShard(2)
	c.Add("a", 1)
	if !c.Remove("a") {
		t.Fatal("Remove(a) should report present")
	}
	if c.Remove("a") {
		t.Fatal("Remove(a) twice should report absent")
	}
	c.Add("x", 1)
	c.Add("y", 2)
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len after Purge = %d; want 0", c.Len())
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("Remove/Purge must not count as evictions, got %d", st.Evictions)
	}
	// Cache still usable after Purge.
	c.Add("z", 3)
	if v, ok := c.Get("z"); !ok || v != 3 {
		t.Fatalf("Get(z) after Purge = %d, %v; want 3, true", v, ok)
	}
}

func TestShardDistribution(t *testing.T) {
	const capacity, keys = 4096, 2048
	c := NewSharded[string, int](capacity, DefaultShards, StringHash)
	if len(c.shards) != DefaultShards {
		t.Fatalf("shard count = %d; want %d", len(c.shards), DefaultShards)
	}
	for i := 0; i < keys; i++ {
		c.Add(fmt.Sprintf("query-%d", i), i)
	}
	if c.Len() != keys {
		t.Fatalf("Len = %d; want %d (capacity is ample, nothing may evict)", c.Len(), keys)
	}
	// Every shard should hold roughly keys/shards entries; a shard further
	// than 3x from the mean means the hash is not spreading keys.
	mean := keys / DefaultShards
	for i := 0; i < DefaultShards; i++ {
		n := c.shardLen(i)
		if n == 0 || n > 3*mean {
			t.Errorf("shard %d holds %d entries (mean %d): bad distribution", i, n, mean)
		}
	}
}

func TestShardedCapacityClamping(t *testing.T) {
	// capacity < shards: shard count clamps so each shard holds >= 1 entry.
	c := NewSharded[string, int](3, 16, StringHash)
	if got := c.Stats().Capacity; got != 3 {
		t.Fatalf("total capacity = %d; want 3", got)
	}
	for i := 0; i < 100; i++ {
		c.Add(fmt.Sprintf("k%d", i), i)
	}
	if c.Len() > 3 {
		t.Fatalf("Len = %d; want <= 3", c.Len())
	}
	// Degenerate capacities are clamped to 1, not rejected.
	c2 := New[string, int](0, StringHash)
	c2.Add("a", 1)
	if v, ok := c2.Get("a"); !ok || v != 1 {
		t.Fatalf("zero-capacity cache should clamp to 1 entry, got %d, %v", v, ok)
	}
}

// TestNewKeepsFirstEntries checks that a cache made by New keeps its first
// min(capacity, minShardEntries) keys, whatever shards the process's hash
// seed sends them to: small caches are one exact-LRU shard, larger ones
// give every shard at least minShardEntries entries.
func TestNewKeepsFirstEntries(t *testing.T) {
	for _, capacity := range []int{2, 16, 31, 64, 1024} {
		c := New[string, int](capacity, StringHash)
		n := min(capacity, minShardEntries)
		for i := 0; i < n; i++ {
			c.Add(fmt.Sprintf("k%d", i), i)
		}
		if st := c.Stats(); st.Entries != n || st.Evictions != 0 {
			t.Errorf("capacity %d: %d entries, %d evictions after %d adds; want all kept",
				capacity, st.Entries, st.Evictions, n)
		}
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := New[string, int](128, StringHash)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := fmt.Sprintf("k%d", i%200)
				c.Add(k, i)
				c.Get(k)
				if i%17 == 0 {
					c.Remove(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 128 {
		t.Fatalf("Len = %d exceeds capacity 128", c.Len())
	}
	st := c.Stats()
	if st.Hits+st.Misses != 8000 {
		t.Fatalf("hits+misses = %d; want 8000", st.Hits+st.Misses)
	}
}

func TestGroupCoalescing(t *testing.T) {
	var g Group[string, string]
	var computations atomic.Int64
	release := make(chan struct{})
	start := make(chan struct{})

	const waiters = 64
	var wg sync.WaitGroup
	results := make([]string, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err, _ := g.Do("apple", func() (string, error) {
				computations.Add(1)
				<-release // hold the call in flight until all goroutines queue
				return "fruit|company", nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = v
		}(i)
	}
	close(start)
	// Wait until the one in-flight call exists and every other goroutine is
	// queued behind it (each increments Coalesced before waiting), then let
	// the flight finish.
	for g.Executions() != 1 || g.Coalesced() != waiters-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if n := computations.Load(); n != 1 {
		t.Fatalf("computations = %d; want exactly 1 (coalescing failed)", n)
	}
	for i, r := range results {
		if r != "fruit|company" {
			t.Fatalf("waiter %d got %q", i, r)
		}
	}
	if g.Executions() != 1 {
		t.Fatalf("Executions = %d; want 1", g.Executions())
	}
	if g.Coalesced() != waiters-1 {
		t.Fatalf("Coalesced = %d; want %d", g.Coalesced(), waiters-1)
	}

	// After the flight lands, the key is retired: a new Do recomputes.
	_, _, shared := g.Do("apple", func() (string, error) { return "again", nil })
	if shared {
		t.Fatal("post-flight Do must not report shared")
	}
	if g.Executions() != 2 {
		t.Fatalf("Executions after retire = %d; want 2", g.Executions())
	}
}

func TestGroupDistinctKeysDoNotCoalesce(t *testing.T) {
	var g Group[int, int]
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, _ := g.Do(i, func() (int, error) { return i * i, nil })
			if err != nil || v != i*i {
				t.Errorf("Do(%d) = %d, %v", i, v, err)
			}
		}(i)
	}
	wg.Wait()
	if g.Executions() != 8 {
		t.Fatalf("Executions = %d; want 8", g.Executions())
	}
}

func TestGroupError(t *testing.T) {
	var g Group[string, int]
	wantErr := fmt.Errorf("boom")
	_, err, _ := g.Do("k", func() (int, error) { return 0, wantErr })
	if err != wantErr {
		t.Fatalf("err = %v; want %v", err, wantErr)
	}
	// Errors are not cached by the group: next call runs again.
	v, err, _ := g.Do("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = %d, %v; want 7, nil", v, err)
	}
}

func TestGroupPanicReleasesWaiters(t *testing.T) {
	var g Group[string, int]
	func() {
		defer func() {
			if r := recover(); r != "kaboom" {
				t.Errorf("recovered %v; want the original panic value \"kaboom\"", r)
			}
		}()
		g.Do("k", func() (int, error) { panic("kaboom") })
	}()
	// The key must be retired so later calls are not wedged.
	v, err, _ := g.Do("k", func() (int, error) { return 1, nil })
	if err != nil || v != 1 {
		t.Fatalf("post-panic Do = %d, %v; want 1, nil", v, err)
	}
	if err := func() error {
		_, err, _ := g.Do("other", func() (int, error) { return 0, nil })
		return err
	}(); err != nil {
		t.Fatalf("unrelated key after panic: %v", err)
	}
}

func TestStatsHitRate(t *testing.T) {
	var zero Stats
	if zero.HitRate() != 0 {
		t.Fatal("zero stats hit rate should be 0")
	}
	s := Stats{Hits: 3, Misses: 1}
	if got := s.HitRate(); got != 0.75 {
		t.Fatalf("HitRate = %v; want 0.75", got)
	}
	if !strings.Contains(fmt.Sprintf("%+v", s), "Hits:3") {
		t.Fatalf("unexpected stats render: %+v", s)
	}
}
