// Package seedrand hands out seeded math/rand generators without paying
// rand.NewSource on every call. Seeding a Go 1 source fills a 607-word
// table through a 780-round warm-up, which costs more than the few draws a
// k-means restart or a PEBC solve takes. The program reuses a handful of
// seeds (the engine seed and its restart offsets), so New memoizes the
// first prefixLen Uint64 draws of each seed and replays them.
//
// Every generator New returns draws exactly the sequence of
// rand.New(rand.NewSource(seed)), by construction: the replayed values are
// that source's own Uint64 draws, Int63 masks them as the source does, and
// past the prefix the generator continues on a real source advanced by
// prefixLen draws.
package seedrand

import (
	"math/rand"
	"sync"
)

const (
	// prefixLen is how many Uint64 draws are memoized per seed; a k-means
	// restart or a PEBC solve on a served result set takes fewer.
	prefixLen = 64
	// memoSeeds bounds the memo. Seeds past it are never memoized and get a
	// plain rand.NewSource, so a caller cycling through fresh seeds cannot
	// grow the memo.
	memoSeeds = 64
)

type prefix [prefixLen]uint64

var (
	memoMu sync.Mutex
	// memo maps a seed to its prefix. Prefixes are never mutated once
	// stored, so replays read them without the lock.
	memo = map[int64]*prefix{}
)

// New returns a generator whose draws are identical to
// rand.New(rand.NewSource(seed)). Like any *rand.Rand it is not safe for
// concurrent use; concurrent callers each take their own.
func New(seed int64) *rand.Rand {
	src := new(replay)
	src.Seed(seed)
	return rand.New(src)
}

// lookup returns the memoized prefix of seed, computing it on first use, or
// nil once the memo is full and seed is not in it.
func lookup(seed int64) *prefix {
	memoMu.Lock()
	defer memoMu.Unlock()
	if p, ok := memo[seed]; ok || len(memo) >= memoSeeds {
		return p
	}
	p := new(prefix)
	src := rand.NewSource(seed).(rand.Source64)
	for i := range p {
		p[i] = src.Uint64()
	}
	memo[seed] = p
	return p
}

// replay is a rand.Source64 that serves a memoized prefix and then a real
// source advanced past it. A nil prefix (seed not memoized) makes it a
// plain rand.NewSource(seed).
type replay struct {
	seed int64
	pre  *prefix
	pos  int
	src  rand.Source64
}

// Seed restarts the sequence at seed, as rand.Source requires.
func (r *replay) Seed(seed int64) {
	*r = replay{seed: seed, pre: lookup(seed)}
}

// Uint64 returns the next draw of seed's sequence.
func (r *replay) Uint64() uint64 {
	if r.pre != nil && r.pos < prefixLen {
		v := r.pre[r.pos]
		r.pos++
		return v
	}
	if r.src == nil {
		r.src = rand.NewSource(r.seed).(rand.Source64)
		if r.pre != nil {
			for range prefixLen {
				r.src.Uint64()
			}
		}
	}
	return r.src.Uint64()
}

// Int63 consumes one draw, masked to 63 bits exactly as the Go 1 source
// derives Int63 from its Uint64.
func (r *replay) Int63() int64 {
	return int64(r.Uint64() & (1<<63 - 1))
}
