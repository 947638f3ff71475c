// Package cache provides the serving-path caching primitives: a sharded,
// mutex-striped LRU cache generic over key and value types, and a
// singleflight-style request coalescer (Group) so concurrent identical
// computations run once.
//
// The cache is sharded to keep lock contention low under heavy concurrent
// traffic: each key hashes to one shard, and each shard has its own mutex,
// hash map and recency list. Capacity is divided evenly across shards, so
// eviction is approximate LRU globally but exact LRU per shard — the standard
// trade-off (memcached, ristretto, groupcache all make it) that buys
// near-linear scalability with core count.
package cache

import (
	"hash/maphash"
	"sync"

	"repro/internal/obs"
)

// hashSeed is the per-process seed for StringHash. A fresh seed per process
// defends against deliberately colliding keys pinning one shard.
var hashSeed = maphash.MakeSeed()

// StringHash is the default hash for string-keyed caches.
func StringHash(s string) uint64 { return maphash.String(hashSeed, s) }

// PointerHash is the hash for caches keyed by pointer identity: it hashes
// the address, not what it points to.
func PointerHash[T any](p *T) uint64 { return maphash.Comparable(hashSeed, p) }

// DefaultShards is the shard count used by New. Sixteen mutex stripes keep
// contention negligible for typical server core counts without fragmenting
// small capacities too much.
const DefaultShards = 16

// Stats is a point-in-time snapshot of cache counters.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses int64
	// Evictions counts entries dropped to make room (not explicit Removes).
	Evictions int64
	// Entries is the current number of cached entries across all shards.
	Entries int
	// Capacity is the total configured capacity across all shards.
	Capacity int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is one node of a shard's intrusive doubly-linked recency list.
type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// shard is one mutex stripe: a map for lookup plus a recency list whose head
// is the most recently used entry.
type shard[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	items    map[K]*entry[K, V]
	head     *entry[K, V]
	tail     *entry[K, V]
}

// Cache is a sharded LRU cache. The zero value is not usable; construct with
// New or NewSharded. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	shards []*shard[K, V]
	mask   uint64
	hash   func(K) uint64

	// Counters are obs primitives so the serving layer can surface them on
	// /metrics without translation; Stats still reports int64 snapshots.
	hits      obs.Counter
	misses    obs.Counter
	evictions obs.Counter
}

// minShardEntries is the fewest entries New gives a shard. Keys pick their
// shard through a per-process random hash seed, so with one entry per shard
// (a 16-entry cache over 16 shards) a key is evicted by the first other key
// that lands on its shard, which for two keys happens in one process of 16.
const minShardEntries = 16

// New returns a cache holding up to capacity entries, striped over
// DefaultShards shards, or fewer when capacity is small, so that every shard
// holds at least minShardEntries entries (a cache of up to 31 entries is
// one exact-LRU shard). hash maps a key to a shard; use StringHash for
// string keys. capacity < 1 is treated as 1.
func New[K comparable, V any](capacity int, hash func(K) uint64) *Cache[K, V] {
	return NewSharded[K, V](capacity, min(DefaultShards, capacity/minShardEntries), hash)
}

// NewSharded is New with an explicit shard count. The count is rounded down
// to a power of two (so shard selection is a mask, not a modulo) and clamped
// to [1, capacity].
func NewSharded[K comparable, V any](capacity, shards int, hash func(K) uint64) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	if shards > capacity {
		shards = capacity
	}
	if shards < 1 {
		shards = 1
	}
	// Round down to a power of two.
	for shards&(shards-1) != 0 {
		shards &= shards - 1
	}
	c := &Cache[K, V]{
		shards: make([]*shard[K, V], shards),
		mask:   uint64(shards - 1),
		hash:   hash,
	}
	// Distribute capacity as evenly as possible; the first capacity%shards
	// shards take one extra entry so the total is exact.
	base, extra := capacity/shards, capacity%shards
	for i := range c.shards {
		cap := base
		if i < extra {
			cap++
		}
		c.shards[i] = &shard[K, V]{
			capacity: cap,
			items:    make(map[K]*entry[K, V], cap),
		}
	}
	return c
}

func (c *Cache[K, V]) shardFor(key K) *shard[K, V] {
	return c.shards[c.hash(key)&c.mask]
}

// Get returns the cached value for key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Inc()
		var zero V
		return zero, false
	}
	s.moveToFront(e)
	v := e.val
	s.mu.Unlock()
	c.hits.Inc()
	return v, true
}

// Peek returns the cached value for key without updating recency or the
// hit/miss counters. Use it for internal double-checks that should not skew
// the stats a Get-based workload produces.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[key]; ok {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Add inserts or updates key, marking it most recently used. It reports
// whether an existing entry was evicted to make room.
func (c *Cache[K, V]) Add(key K, val V) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	if e, ok := s.items[key]; ok {
		e.val = val
		s.moveToFront(e)
		s.mu.Unlock()
		return false
	}
	e := &entry[K, V]{key: key, val: val}
	s.items[key] = e
	s.pushFront(e)
	var evicted bool
	if len(s.items) > s.capacity {
		victim := s.tail
		s.unlink(victim)
		delete(s.items, victim.key)
		evicted = true
	}
	s.mu.Unlock()
	if evicted {
		c.evictions.Inc()
	}
	return evicted
}

// Remove deletes key, reporting whether it was present. Explicit removals do
// not count as evictions.
func (c *Cache[K, V]) Remove(key K) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[key]
	if !ok {
		return false
	}
	s.unlink(e)
	delete(s.items, key)
	return true
}

// Purge empties the cache. Counters are preserved.
func (c *Cache[K, V]) Purge() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.items = make(map[K]*entry[K, V], s.capacity)
		s.head, s.tail = nil, nil
		s.mu.Unlock()
	}
}

// Len returns the current number of entries.
func (c *Cache[K, V]) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[K, V]) Stats() Stats {
	st := Stats{
		Hits:      int64(c.hits.Load()),
		Misses:    int64(c.misses.Load()),
		Evictions: int64(c.evictions.Load()),
		Entries:   c.Len(),
	}
	for _, s := range c.shards {
		st.Capacity += s.capacity
	}
	return st
}

// shardLen returns the entry count of shard i (test hook for distribution).
func (c *Cache[K, V]) shardLen(i int) int {
	s := c.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

// --- intrusive list (callers hold s.mu) -------------------------------------

func (s *shard[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard[K, V]) moveToFront(e *entry[K, V]) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
