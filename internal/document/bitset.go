package document

import (
	"fmt"
	"math/bits"
)

// BitSet is a set over a fixed dense ID universe 0..n-1, packed 64 IDs per
// uint64 word. It backs the expansion core's hot paths: set algebra becomes
// word-wise And/AndNot/Or and cardinality becomes popcount, replacing the
// map-backed set operations that dominated the ISKR/PEBC profiles.
//
// Iteration (ForEach, IDs) is always in ascending ID order. Callers that
// accumulate floating-point sums over members therefore add in exactly the
// sorted-document order the map-backed code used, keeping results
// bit-identical — the determinism contract the expansion golden test pins.
//
// The zero value is an empty set over an empty universe. Mutating methods
// (Add, Remove, And, AndNot, Or, Fill, Clear) modify the receiver in place;
// sets combined by the binary operations must share a universe size.
type BitSet struct {
	n     int
	words []uint64
}

// NewBitSet returns an empty set over the universe 0..n-1.
func NewBitSet(n int) BitSet {
	if n < 0 {
		panic("document: negative BitSet universe")
	}
	return BitSet{n: n, words: make([]uint64, (n+63)/64)}
}

// FullBitSet returns the set {0, ..., n-1}.
func FullBitSet(n int) BitSet {
	b := NewBitSet(n)
	b.Fill()
	return b
}

// N returns the universe size (the exclusive upper bound on member IDs).
func (b BitSet) N() int { return b.n }

// Words exposes the packed representation for fused word-wise loops. The
// slice is the live backing store: callers must treat it as read-only.
func (b BitSet) Words() []uint64 { return b.words }

// Contains reports membership of id. IDs outside the universe are absent.
func (b BitSet) Contains(id int) bool {
	if id < 0 || id >= b.n {
		return false
	}
	return b.words[id>>6]&(1<<(uint(id)&63)) != 0
}

// Add inserts id (panics when outside the universe).
func (b BitSet) Add(id int) {
	if id < 0 || id >= b.n {
		panic(fmt.Sprintf("document: BitSet.Add(%d) outside universe of %d", id, b.n))
	}
	b.words[id>>6] |= 1 << (uint(id) & 63)
}

// Remove deletes id (no-op when absent or outside the universe).
func (b BitSet) Remove(id int) {
	if id < 0 || id >= b.n {
		return
	}
	b.words[id>>6] &^= 1 << (uint(id) & 63)
}

// Len returns the cardinality (popcount over the words).
func (b BitSet) Len() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Empty reports whether no bit is set, without a full popcount.
func (b BitSet) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Fill sets every bit of the universe.
func (b BitSet) Fill() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// Clear removes every member.
func (b BitSet) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// trim zeroes the tail bits beyond n-1 in the last word, so popcounts and
// word-wise comparisons never see ghost members.
func (b BitSet) trim() {
	if rem := uint(b.n) & 63; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << rem) - 1
	}
}

// Clone returns an independent copy.
func (b BitSet) Clone() BitSet {
	out := BitSet{n: b.n, words: make([]uint64, len(b.words))}
	copy(out.words, b.words)
	return out
}

// CopyFrom overwrites b with t's members, reusing b's storage. The two sets
// must share a universe.
func (b BitSet) CopyFrom(t BitSet) {
	b.sameUniverse(t)
	copy(b.words, t.words)
}

func (b BitSet) sameUniverse(t BitSet) {
	if b.n != t.n {
		panic(fmt.Sprintf("document: BitSet universe mismatch (%d vs %d)", b.n, t.n))
	}
}

// AndOf overwrites b with x ∩ y, reusing b's storage (a fused CopyFrom+And,
// one pass). All three sets must share a universe.
func (b BitSet) AndOf(x, y BitSet) {
	b.sameUniverse(x)
	x.sameUniverse(y)
	for i := range b.words {
		b.words[i] = x.words[i] & y.words[i]
	}
}

// And intersects in place: b = b ∩ t.
func (b BitSet) And(t BitSet) {
	b.sameUniverse(t)
	for i := range b.words {
		b.words[i] &= t.words[i]
	}
}

// AndNot subtracts in place: b = b \ t.
func (b BitSet) AndNot(t BitSet) {
	b.sameUniverse(t)
	for i := range b.words {
		b.words[i] &^= t.words[i]
	}
}

// Or unions in place: b = b ∪ t.
func (b BitSet) Or(t BitSet) {
	b.sameUniverse(t)
	for i := range b.words {
		b.words[i] |= t.words[i]
	}
}

// AndLen returns |b ∩ t| without materializing the intersection.
func (b BitSet) AndLen(t BitSet) int {
	b.sameUniverse(t)
	total := 0
	for i, w := range b.words {
		total += bits.OnesCount64(w & t.words[i])
	}
	return total
}

// Equal reports whether b and t contain the same members.
func (b BitSet) Equal(t BitSet) bool {
	if b.n != t.n {
		return false
	}
	for i, w := range b.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls f for every member in ascending order.
func (b BitSet) ForEach(f func(id int)) {
	for wi, w := range b.words {
		base := wi << 6
		for w != 0 {
			f(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// IDs returns the members in ascending order.
func (b BitSet) IDs() []int {
	out := make([]int, 0, b.Len())
	b.ForEach(func(id int) { out = append(out, id) })
	return out
}
