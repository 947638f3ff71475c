package document

import (
	"math/rand"
	"sort"
	"testing"
)

func TestBitSetBasicOps(t *testing.T) {
	b := NewBitSet(130)
	if b.N() != 130 || b.Len() != 0 || !b.Empty() {
		t.Fatalf("fresh set: N=%d Len=%d Empty=%t", b.N(), b.Len(), b.Empty())
	}
	for _, id := range []int{0, 63, 64, 129} {
		b.Add(id)
		if !b.Contains(id) {
			t.Errorf("Contains(%d) after Add", id)
		}
	}
	if b.Len() != 4 || b.Empty() {
		t.Errorf("Len = %d, want 4", b.Len())
	}
	b.Remove(64)
	if b.Contains(64) || b.Len() != 3 {
		t.Errorf("Remove(64): Contains=%t Len=%d", b.Contains(64), b.Len())
	}
	if b.Contains(-1) || b.Contains(130) {
		t.Error("out-of-universe IDs must read as absent")
	}
	b.Remove(-1)
	b.Remove(999) // no-ops
	want := []int{0, 63, 129}
	got := b.IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
}

func TestBitSetFillTrimsGhostBits(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		b := FullBitSet(n)
		if b.Len() != n {
			t.Errorf("FullBitSet(%d).Len() = %d", n, b.Len())
		}
		if n > 0 && !b.Contains(n-1) {
			t.Errorf("FullBitSet(%d) missing %d", n, n-1)
		}
		if b.Contains(n) {
			t.Errorf("FullBitSet(%d) contains ghost bit %d", n, n)
		}
	}
}

func TestBitSetAddOutsideUniversePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add outside the universe must panic")
		}
	}()
	NewBitSet(10).Add(10)
}

func TestBitSetUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("And across universes must panic")
		}
	}()
	NewBitSet(64).And(NewBitSet(65))
}

// mirrorSet pairs a BitSet with a plain map set and applies every operation
// to both, so the property test below can check they never diverge.
type mirrorSet struct {
	bits BitSet
	set  map[int]bool
}

func newMirror(n int) *mirrorSet {
	return &mirrorSet{bits: NewBitSet(n), set: map[int]bool{}}
}

// sortedIDs returns the map set's members in ascending order.
func (m *mirrorSet) sortedIDs() []int {
	out := make([]int, 0, len(m.set))
	for id := range m.set {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// keep drops the map set's members for which in(id) is false.
func (m *mirrorSet) keep(in func(id int) bool) {
	for id := range m.set {
		if !in(id) {
			delete(m.set, id)
		}
	}
}

func (m *mirrorSet) check(t *testing.T, op string) {
	t.Helper()
	if m.bits.Len() != len(m.set) {
		t.Fatalf("%s: Len %d vs map set %d", op, m.bits.Len(), len(m.set))
	}
	ids := m.bits.IDs()
	want := m.sortedIDs()
	for i, id := range ids {
		if id != want[i] {
			t.Fatalf("%s: IDs[%d] = %d, want %d (bitset iteration must be "+
				"ascending and agree with the sorted map set)", op, i, id, want[i])
		}
	}
	if (m.bits.Len() == 0) != m.bits.Empty() {
		t.Fatalf("%s: Empty() inconsistent with Len()", op)
	}
}

// TestBitSetMatchesDocSetSemantics drives randomized operation sequences
// against a BitSet and a map-backed document set in lockstep: Add, Remove, Union,
// Intersect, AndNot (Subtract), Len and IDs ordering must agree after every
// step. This is the map-vs-bitset property contract the expansion core's
// dense refactor rests on.
func TestBitSetMatchesDocSetSemantics(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		m := newMirror(n)
		other := newMirror(n)
		for step := 0; step < 500; step++ {
			id := rng.Intn(n)
			switch rng.Intn(6) {
			case 0:
				m.bits.Add(id)
				m.set[id] = true
				m.check(t, "Add")
			case 1:
				m.bits.Remove(id)
				delete(m.set, id)
				m.check(t, "Remove")
			case 2:
				other.bits.Add(id)
				other.set[id] = true
			case 3: // Union
				m.bits.Or(other.bits)
				for o := range other.set {
					m.set[o] = true
				}
				m.check(t, "Or/Union")
			case 4: // Intersect
				m.bits.And(other.bits)
				m.keep(func(o int) bool { return other.set[o] })
				m.check(t, "And/Intersect")
			case 5: // Subtract
				m.bits.AndNot(other.bits)
				m.keep(func(o int) bool { return !other.set[o] })
				m.check(t, "AndNot/Subtract")
			}
			if got, want := m.bits.Contains(id), m.set[id]; got != want {
				t.Fatalf("seed %d step %d: Contains(%d) = %t, map set %t",
					seed, step, id, got, want)
			}
			inter := 0
			for o := range m.set {
				if other.set[o] {
					inter++
				}
			}
			if got := m.bits.AndLen(other.bits); got != inter {
				t.Fatalf("seed %d step %d: AndLen = %d, want %d", seed, step, got, inter)
			}
		}
		// Clone independence and equality.
		c := m.bits.Clone()
		if !c.Equal(m.bits) {
			t.Fatal("clone not equal")
		}
		c.Fill()
		if m.bits.Len() == n && n > 1 {
			continue // full set: Fill is a no-op difference
		}
		if c.Len() != n {
			t.Fatalf("Fill on clone: Len %d, want %d", c.Len(), n)
		}
	}
}

func TestBitSetCopyFrom(t *testing.T) {
	a, b := NewBitSet(100), NewBitSet(100)
	for _, id := range []int{3, 64, 99} {
		b.Add(id)
	}
	a.Add(7)
	a.CopyFrom(b)
	if !a.Equal(b) {
		t.Fatalf("CopyFrom: %v, want %v", a.IDs(), b.IDs())
	}
	b.Remove(64)
	if a.Equal(b) {
		t.Fatal("CopyFrom must not share storage")
	}
}

func TestBitSetForEachAscending(t *testing.T) {
	b := NewBitSet(300)
	for _, id := range []int{299, 0, 64, 63, 128, 65} {
		b.Add(id)
	}
	prev := -1
	b.ForEach(func(id int) {
		if id <= prev {
			t.Fatalf("ForEach out of order: %d after %d", id, prev)
		}
		prev = id
	})
}
