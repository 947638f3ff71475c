package document

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestTripletString(t *testing.T) {
	tr := Triplet{Entity: "tv", Attribute: "brand", Value: "toshiba"}
	if got, want := tr.String(), "tv: brand: toshiba"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestTripletComposite(t *testing.T) {
	tr := Triplet{Entity: "product", Attribute: "name", Value: "ipad"}
	if got, want := tr.Composite(), "product:name:ipad"; got != want {
		t.Errorf("Composite = %q, want %q", got, want)
	}
}

func TestTripletTermsIncludesPartsAndComposite(t *testing.T) {
	tr := Triplet{Entity: "camera", Attribute: "image resolution", Value: "4752 x 3168"}
	got := tr.Terms()
	want := []string{"camera", "image", "resolution", "4752", "x", "3168",
		"camera:image resolution:4752 x 3168"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestParseCompositeRoundTrip(t *testing.T) {
	tr := Triplet{Entity: "memory", Attribute: "category", Value: "ddr3"}
	got, ok := ParseComposite(tr.Composite())
	if !ok || got != tr {
		t.Errorf("ParseComposite = %v, %v", got, ok)
	}
}

func TestParseCompositeValueMayContainColon(t *testing.T) {
	got, ok := ParseComposite("a:b:c:d")
	if !ok || got.Value != "c:d" {
		t.Errorf("ParseComposite = %v, %v; want value c:d", got, ok)
	}
}

func TestParseCompositeRejectsNonComposite(t *testing.T) {
	for _, s := range []string{"plain", "a:b", ":b:c", "a::c", "a:b:", ""} {
		if _, ok := ParseComposite(s); ok {
			t.Errorf("ParseComposite(%q) accepted", s)
		}
	}
}

func TestCorpusAddAssignsSequentialIDs(t *testing.T) {
	c := NewCorpus()
	id0 := c.AddText("t0", "body zero")
	id1 := c.AddStructured("t1", []Triplet{{"e", "a", "v"}})
	if id0 != 0 || id1 != 1 {
		t.Errorf("ids = %d, %d", id0, id1)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.Get(id1).Title != "t1" {
		t.Errorf("Get(1).Title = %q", c.Get(id1).Title)
	}
}

func TestCorpusGetOutOfRange(t *testing.T) {
	c := NewCorpus()
	c.AddText("t", "b")
	if c.Get(-1) != nil || c.Get(5) != nil {
		t.Error("Get out of range should return nil")
	}
}

func TestFullTextText(t *testing.T) {
	d := &Document{Kind: Text, Title: "San Jose", Body: "hockey team"}
	if got, want := d.FullText(), "San Jose hockey team"; got != want {
		t.Errorf("FullText = %q, want %q", got, want)
	}
	d2 := &Document{Kind: Text, Body: "only body"}
	if got := d2.FullText(); got != "only body" {
		t.Errorf("FullText = %q", got)
	}
}

func TestFullTextStructured(t *testing.T) {
	d := &Document{Kind: Structured, Title: "Canon X", Triplets: []Triplet{
		{"canonproducts", "category", "camera"},
	}}
	if got, want := d.FullText(), "Canon X canonproducts category camera"; got != want {
		t.Errorf("FullText = %q, want %q", got, want)
	}
}

func TestCompositeTermsSortedDeduped(t *testing.T) {
	d := &Document{Kind: Structured, Triplets: []Triplet{
		{"b", "y", "2"}, {"a", "x", "1"}, {"b", "y", "2"},
	}}
	got := d.CompositeTerms()
	want := []string{"a:x:1", "b:y:2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CompositeTerms = %v, want %v", got, want)
	}
}

func TestCompositeTermsEmptyForText(t *testing.T) {
	d := &Document{Kind: Text, Body: "x"}
	if got := d.CompositeTerms(); got != nil {
		t.Errorf("CompositeTerms = %v, want nil", got)
	}
}

// The TestDocSet* tests check the laws of a document set on BitSet, the one
// document-set representation: membership, the algebra the expansion
// algorithms use, copies and equality.

// docSet builds a set over the universe 0..31.
func docSet(ids ...int) BitSet {
	s := NewBitSet(32)
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

func TestDocSetBasicOps(t *testing.T) {
	s := docSet(1, 2, 3)
	if !s.Contains(2) || s.Contains(9) || s.Len() != 3 {
		t.Error("basic membership failed")
	}
	s.Add(9)
	if !s.Contains(9) {
		t.Error("Add failed")
	}
	s.Remove(9)
	if s.Contains(9) {
		t.Error("Remove failed")
	}
}

func TestDocSetAlgebra(t *testing.T) {
	a := docSet(1, 2, 3, 4)
	b := docSet(3, 4, 5)
	inter := NewBitSet(32)
	inter.AndOf(a, b)
	if got := inter.IDs(); !reflect.DeepEqual(got, []int{3, 4}) {
		t.Errorf("Intersect = %v", got)
	}
	union := a.Clone()
	union.Or(b)
	if got := union.IDs(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5}) {
		t.Errorf("Union = %v", got)
	}
	diff := a.Clone()
	diff.AndNot(b)
	if got := diff.IDs(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("Subtract = %v", got)
	}
}

func TestDocSetCloneIndependent(t *testing.T) {
	a := docSet(1)
	b := a.Clone()
	b.Add(2)
	if a.Contains(2) {
		t.Error("Clone shares storage")
	}
}

func TestDocSetEqual(t *testing.T) {
	if !docSet(1, 2).Equal(docSet(2, 1)) {
		t.Error("order should not matter")
	}
	if docSet(1).Equal(docSet(1, 2)) {
		t.Error("different sizes equal")
	}
	if docSet(1, 3).Equal(docSet(1, 2)) {
		t.Error("different members equal")
	}
	if NewBitSet(32).Equal(NewBitSet(33)) {
		t.Error("sets over different universes equal")
	}
}

// genSet is the property tests' generator: small random sets.
func genSet(ids []uint8) BitSet {
	s := NewBitSet(32)
	for _, id := range ids {
		s.Add(int(id % 32))
	}
	return s
}

func TestDocSetPropertyDeMorgan(t *testing.T) {
	// |A ∪ B| = |A| + |B| - |A ∩ B|
	prop := func(as, bs []uint8) bool {
		a, b := genSet(as), genSet(bs)
		union := a.Clone()
		union.Or(b)
		return union.Len() == a.Len()+b.Len()-a.AndLen(b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDocSetPropertySubtractDisjoint(t *testing.T) {
	// (A \ B) ∩ B = ∅ and (A \ B) ∪ (A ∩ B) = A
	prop := func(as, bs []uint8) bool {
		a, b := genSet(as), genSet(bs)
		diff := a.Clone()
		diff.AndNot(b)
		if diff.AndLen(b) != 0 {
			return false
		}
		inter := NewBitSet(32)
		inter.AndOf(a, b)
		diff.Or(inter)
		return diff.Equal(a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDocSetPropertyIDsSorted(t *testing.T) {
	prop := func(as []uint8) bool {
		return sort.IntsAreSorted(genSet(as).IDs())
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDocSetPropertyIntersectCommutative(t *testing.T) {
	prop := func(as, bs []uint8) bool {
		a, b := genSet(as), genSet(bs)
		ab, ba := NewBitSet(32), NewBitSet(32)
		ab.AndOf(a, b)
		ba.AndOf(b, a)
		return ab.Equal(ba) && a.AndLen(b) == b.AndLen(a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
