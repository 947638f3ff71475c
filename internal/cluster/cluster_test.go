package cluster

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/document"
	"repro/internal/index"
	"repro/internal/par"
)

// abcDict is the shared vocabulary of the hand-written vector tests.
func abcDict() *Dict {
	return NewDict([]string{"alpha", "hi", "low", "mid", "x", "y", "z"})
}

func TestDictInternsLexicographically(t *testing.T) {
	d := NewDict([]string{"y", "x", "x", "z"})
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (dedup)", d.Len())
	}
	for i, term := range []string{"x", "y", "z"} {
		id, ok := d.ID(term)
		if !ok || id != int32(i) {
			t.Errorf("ID(%q) = %d,%v, want %d", term, id, ok, i)
		}
		if d.Term(int32(i)) != term {
			t.Errorf("Term(%d) = %q, want %q", i, d.Term(int32(i)), term)
		}
	}
	if _, ok := d.ID("missing"); ok {
		t.Error("ID of unknown term reported present")
	}
}

func TestVectorCosine(t *testing.T) {
	d := abcDict()
	a := d.Vector(map[string]float64{"x": 1, "y": 0})
	b := d.Vector(map[string]float64{"x": 1, "y": 0})
	if got := a.Cosine(b); math.Abs(got-1) > 1e-12 {
		t.Errorf("Cosine identical = %v, want 1", got)
	}
	c := d.Vector(map[string]float64{"z": 3})
	if got := a.Cosine(c); got != 0 {
		t.Errorf("Cosine orthogonal = %v, want 0", got)
	}
	if got := a.Cosine(d.Vector(nil)); got != 0 {
		t.Errorf("Cosine vs empty = %v, want 0", got)
	}
}

func TestVectorDotSymmetric(t *testing.T) {
	d := abcDict()
	a := d.Vector(map[string]float64{"x": 2, "y": 3})
	b := d.Vector(map[string]float64{"y": 5, "z": 7})
	if a.Dot(b) != b.Dot(a) || a.Dot(b) != 15 {
		t.Errorf("Dot = %v / %v, want 15", a.Dot(b), b.Dot(a))
	}
}

func TestVectorNorm(t *testing.T) {
	d := abcDict()
	v := d.Vector(map[string]float64{"x": 3, "y": 4})
	if got := v.Norm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm = %v, want 5", got)
	}
}

func TestVectorNormCacheInvalidation(t *testing.T) {
	d := abcDict()
	v := d.Vector(map[string]float64{"x": 3, "y": 4})
	if v.Norm() != 5 {
		t.Fatalf("Norm = %v, want 5", v.Norm())
	}
	v.Scale(2)
	if got := v.Norm(); math.Abs(got-10) > 1e-12 {
		t.Errorf("Norm after Scale = %v, want 10 (stale cache?)", got)
	}
	v.Add(d.Vector(map[string]float64{"x": 2, "z": 1}))
	want := math.Sqrt(8*8 + 8*8 + 1) // {x:6,y:8} + {x:2,z:1} = {x:8,y:8,z:1}
	if got := v.Norm(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Norm after Add = %v, want %v (stale cache?)", got, want)
	}
}

func TestMeanCentroid(t *testing.T) {
	d := abcDict()
	m := Mean([]*Vector{
		d.Vector(map[string]float64{"x": 2}),
		d.Vector(map[string]float64{"x": 4, "y": 2}),
	})
	xid, _ := d.ID("x")
	yid, _ := d.ID("y")
	if m.Weight(xid) != 3 || m.Weight(yid) != 1 {
		t.Errorf("Mean = %v", m.ToMap(d))
	}
	if got := Mean(nil); got.Len() != 0 {
		t.Errorf("Mean(nil) = %v", got.ToMap(d))
	}
}

func TestVectorCloneIndependent(t *testing.T) {
	d := abcDict()
	a := d.Vector(map[string]float64{"x": 1})
	b := a.Clone()
	b.Scale(9)
	xid, _ := d.ID("x")
	if a.Weight(xid) != 1 {
		t.Error("Clone shares storage")
	}
	if b.Weight(xid) != 9 {
		t.Error("Clone did not copy weights")
	}
}

func TestTopTerms(t *testing.T) {
	d := abcDict()
	v := d.Vector(map[string]float64{"low": 1, "hi": 5, "mid": 3, "alpha": 3})
	got := v.TopTerms(d, 3)
	// ties broken alphabetically: alpha before mid
	want := []string{"hi", "alpha", "mid"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopTerms = %v, want %v", got, want)
		}
	}
	if n := len(v.TopTerms(d, 100)); n != 4 {
		t.Errorf("TopTerms(100) len = %d, want 4", n)
	}
}

// mapDot, mapNorm, mapCosine are the pre-interning reference implementation:
// map-backed vectors, accumulation over lexicographically sorted terms. The
// property tests below pin the merge-join implementation against them.
func mapDot(a, b map[string]float64) float64 {
	small, large := a, b
	if len(b) < len(a) {
		small, large = b, a
	}
	terms := make([]string, 0, len(small))
	for t := range small {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	s := 0.0
	for _, t := range terms {
		if w2, ok := large[t]; ok {
			s += small[t] * w2
		}
	}
	return s
}

func mapNorm(a map[string]float64) float64 {
	terms := make([]string, 0, len(a))
	for t := range a {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	s := 0.0
	for _, t := range terms {
		s += a[t] * a[t]
	}
	return math.Sqrt(s)
}

func mapCosine(a, b map[string]float64) float64 {
	na, nb := mapNorm(a), mapNorm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return mapDot(a, b) / (na * nb)
}

// TestCosineMatchesMapReference is the refactor's compatibility property:
// on randomized sparse vectors, the interned merge-join cosine agrees with
// the old map-based cosine to 1e-12 (in fact bit-exactly, since both
// accumulate in sorted term order).
func TestCosineMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vocab := make([]string, 64)
	for i := range vocab {
		vocab[i] = string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	randSparse := func() map[string]float64 {
		m := map[string]float64{}
		nnz := rng.Intn(40)
		for j := 0; j < nnz; j++ {
			m[vocab[rng.Intn(len(vocab))]] = math.Floor(rng.Float64()*1000)/64 + 1
		}
		return m
	}
	d := NewDict(vocab)
	for trial := 0; trial < 2000; trial++ {
		a, b := randSparse(), randSparse()
		va, vb := d.Vector(a), d.Vector(b)
		if got, want := va.Dot(vb), mapDot(a, b); got != want {
			t.Fatalf("trial %d: Dot = %v, map reference %v", trial, got, want)
		}
		if got, want := va.Norm(), mapNorm(a); got != want {
			t.Fatalf("trial %d: Norm = %v, map reference %v", trial, got, want)
		}
		got, want := va.Cosine(vb), mapCosine(a, b)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: Cosine = %v, map reference %v (Δ %g)",
				trial, got, want, got-want)
		}
	}
}

// kmeans clusters documents of idx through KMeansVecs.
func kmeans(idx *index.Index, docs []document.DocID, opts Options) *Clustering {
	return KMeansVecs(idx.NumTerms(), VectorsFromDocs(idx, docs), docs, opts)
}

// twoTopicIndex builds a corpus with two clearly separated vocabularies.
func twoTopicIndex(t *testing.T, perTopic int) (*index.Index, []document.DocID, map[document.DocID]string) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	fruitWords := []string{"fruit", "orchard", "juice", "tree", "harvest", "pie"}
	techWords := []string{"computer", "iphone", "store", "software", "mac", "laptop"}
	c := document.NewCorpus()
	labels := map[document.DocID]string{}
	var ids []document.DocID
	for i := 0; i < perTopic; i++ {
		text := "apple"
		for j := 0; j < 5; j++ {
			text += " " + fruitWords[rng.Intn(len(fruitWords))]
		}
		id := c.AddText("", text)
		labels[id] = "fruit"
		ids = append(ids, id)
	}
	for i := 0; i < perTopic; i++ {
		text := "apple"
		for j := 0; j < 5; j++ {
			text += " " + techWords[rng.Intn(len(techWords))]
		}
		id := c.AddText("", text)
		labels[id] = "tech"
		ids = append(ids, id)
	}
	return index.Build(c, analysis.Simple()), ids, labels
}

func TestVectorFromDocMatchesIndex(t *testing.T) {
	idx, ids, _ := twoTopicIndex(t, 4)
	d := DictForDocs(idx, ids)
	for _, id := range ids {
		v := d.VectorFromDoc(idx, id)
		terms := idx.DocTerms(id)
		if v.Len() != len(terms) {
			t.Fatalf("doc %d: %d components for %d terms", id, v.Len(), len(terms))
		}
		for _, term := range terms {
			tid, ok := d.ID(term)
			if !ok {
				t.Fatalf("doc %d: term %q missing from dict", id, term)
			}
			if got, want := v.Weight(tid), float64(idx.TermFreq(id, term)); got != want {
				t.Errorf("doc %d term %q: weight %v, want TF %v", id, term, got, want)
			}
		}
	}
}

func TestKMeansSeparatesTopics(t *testing.T) {
	idx, ids, labels := twoTopicIndex(t, 15)
	cl := kmeans(idx, ids, Options{K: 2, Seed: 1, PlusPlus: true})
	if cl.K() != 2 {
		t.Fatalf("K = %d, want 2", cl.K())
	}
	if p := Purity(cl, labels); p < 0.95 {
		t.Errorf("purity = %v, want >= 0.95", p)
	}
}

func TestKMeansDeterministicForSeed(t *testing.T) {
	idx, ids, _ := twoTopicIndex(t, 10)
	a := kmeans(idx, ids, Options{K: 3, Seed: 42})
	b := kmeans(idx, ids, Options{K: 3, Seed: 42})
	if a.K() != b.K() {
		t.Fatalf("nondeterministic K: %d vs %d", a.K(), b.K())
	}
	for i := range a.Clusters {
		if len(a.Clusters[i]) != len(b.Clusters[i]) {
			t.Fatal("nondeterministic cluster sizes")
		}
		for j := range a.Clusters[i] {
			if a.Clusters[i][j] != b.Clusters[i][j] {
				t.Fatal("nondeterministic membership")
			}
		}
	}
}

// sameClustering compares two clusterings bit for bit (membership, order,
// distortion bits, iteration count).
func sameClustering(t *testing.T, label string, a, b *Clustering) {
	t.Helper()
	if a.K() != b.K() {
		t.Fatalf("%s: K = %d vs %d", label, a.K(), b.K())
	}
	if math.Float64bits(a.Distortion) != math.Float64bits(b.Distortion) {
		t.Fatalf("%s: distortion %v (bits %x) vs %v (bits %x)", label,
			a.Distortion, math.Float64bits(a.Distortion),
			b.Distortion, math.Float64bits(b.Distortion))
	}
	if a.Iterations != b.Iterations {
		t.Fatalf("%s: iterations %d vs %d", label, a.Iterations, b.Iterations)
	}
	for i := range a.Clusters {
		if len(a.Clusters[i]) != len(b.Clusters[i]) {
			t.Fatalf("%s: cluster %d size %d vs %d", label, i,
				len(a.Clusters[i]), len(b.Clusters[i]))
		}
		for j := range a.Clusters[i] {
			if a.Clusters[i][j] != b.Clusters[i][j] {
				t.Fatalf("%s: cluster %d member %d: %d vs %d", label, i, j,
					a.Clusters[i][j], b.Clusters[i][j])
			}
		}
	}
	if !slices.Equal(a.Assign, b.Assign) {
		t.Fatalf("%s: Assign %v vs %v", label, a.Assign, b.Assign)
	}
}

// TestKMeansSerialVsConcurrentIdentical is the determinism guarantee of the
// parallel overhaul: k-means with Restarts>1 returns an identical clustering
// whether restarts (and the assignment / D² scans inside them) run on one
// worker or many.
func TestKMeansSerialVsConcurrentIdentical(t *testing.T) {
	idx, ids, _ := twoTopicIndex(t, 25)
	opts := Options{K: 4, Seed: 9, PlusPlus: true, Restarts: 6}
	run := func(workers int) *Clustering {
		defer par.SetWorkersForTest(workers)()
		return kmeans(idx, ids, opts)
	}
	serial := run(1)
	for _, w := range []int{2, 3, 8} {
		sameClustering(t, "workers="+strconv.Itoa(w), serial, run(w))
	}
	// And the default worker count (whatever GOMAXPROCS is here).
	sameClustering(t, "workers=default", serial, kmeans(idx, ids, opts))
}

func TestKMeansPartitionInvariants(t *testing.T) {
	idx, ids, _ := twoTopicIndex(t, 12)
	checkPartition(t, kmeans(idx, ids, Options{K: 4, Seed: 5, PlusPlus: true}), ids)
}

// checkPartition asserts that cl partitions docs into non-empty clusters,
// that Assign is positional over docs and agrees with Clusters, and that
// Sets() holds the same partition over those positions.
func checkPartition(t *testing.T, cl *Clustering, docs []document.DocID) {
	t.Helper()
	if len(cl.Assign) != len(docs) {
		t.Fatalf("assigned %d of %d", len(cl.Assign), len(docs))
	}
	pos := make(map[document.DocID]int, len(docs))
	for i, id := range docs {
		pos[id] = i
	}
	sets := cl.Sets()
	seen := map[document.DocID]bool{}
	for ord, cluster := range cl.Clusters {
		if len(cluster) == 0 {
			t.Error("empty cluster survived")
		}
		if sets[ord].Len() != len(cluster) {
			t.Errorf("Sets()[%d] has %d members, cluster has %d", ord, sets[ord].Len(), len(cluster))
		}
		for _, id := range cluster {
			if seen[id] {
				t.Errorf("doc %d in two clusters", id)
			}
			seen[id] = true
			if got := cl.Assign[pos[id]]; got != ord {
				t.Errorf("Assign of doc %d = %d, want %d", id, got, ord)
			}
			if !sets[ord].Contains(pos[id]) {
				t.Errorf("Sets()[%d] lacks doc %d", ord, id)
			}
		}
	}
	if len(seen) != len(docs) {
		t.Errorf("clustered %d docs, want %d", len(seen), len(docs))
	}
}

func TestKMeansKGreaterThanN(t *testing.T) {
	idx, ids, _ := twoTopicIndex(t, 2) // 4 docs
	cl := kmeans(idx, ids, Options{K: 10, Seed: 1})
	if cl.K() > 4 {
		t.Errorf("K = %d with only 4 docs", cl.K())
	}
}

func TestKMeansEmptyInput(t *testing.T) {
	idx, _, _ := twoTopicIndex(t, 2)
	cl := kmeans(idx, nil, Options{K: 3})
	if cl.K() != 0 {
		t.Errorf("K = %d, want 0", cl.K())
	}
}

func TestKMeansSingleDoc(t *testing.T) {
	idx, ids, _ := twoTopicIndex(t, 1)
	cl := kmeans(idx, ids[:1], Options{K: 3, Seed: 1})
	if cl.K() != 1 || len(cl.Clusters[0]) != 1 {
		t.Errorf("K = %d", cl.K())
	}
}

func TestClusteringSets(t *testing.T) {
	idx, ids, _ := twoTopicIndex(t, 5)
	cl := kmeans(idx, ids, Options{K: 2, Seed: 9})
	sets := cl.Sets()
	if len(sets) != cl.K() {
		t.Fatalf("Sets len = %d", len(sets))
	}
	total := 0
	for i, s := range sets {
		if s.Len() != len(cl.Clusters[i]) {
			t.Error("set size mismatch")
		}
		total += s.Len()
	}
	if total != len(ids) {
		t.Error("sets do not partition input")
	}
}

func TestPurityPerfectAndWorst(t *testing.T) {
	cl := &Clustering{
		Clusters: [][]document.DocID{{0, 1}, {2, 3}},
		Assign:   []int{0, 0, 1, 1},
	}
	perfect := map[document.DocID]string{0: "a", 1: "a", 2: "b", 3: "b"}
	if p := Purity(cl, perfect); p != 1 {
		t.Errorf("perfect purity = %v", p)
	}
	mixed := map[document.DocID]string{0: "a", 1: "b", 2: "a", 3: "b"}
	if p := Purity(cl, mixed); p != 0.5 {
		t.Errorf("mixed purity = %v", p)
	}
	empty := &Clustering{}
	if p := Purity(empty, nil); p != 0 {
		t.Errorf("empty purity = %v", p)
	}
}

func TestSilhouetteSeparatedHigherThanRandom(t *testing.T) {
	idx, ids, _ := twoTopicIndex(t, 10)
	good := kmeans(idx, ids, Options{K: 2, Seed: 1, PlusPlus: true})
	vecs := VectorsFromDocs(idx, ids)
	s := Silhouette(vecs, ids, good)
	if s <= 0.1 {
		t.Errorf("silhouette of separated clustering = %v, want > 0.1", s)
	}
	// Single cluster: silhouette defined as 0.
	one := kmeans(idx, ids, Options{K: 1, Seed: 1})
	if got := Silhouette(vecs, ids, one); got != 0 {
		t.Errorf("silhouette with k=1 = %v, want 0", got)
	}
}

// Property: cosine similarity is symmetric and within [0,1] for TF vectors.
func TestCosinePropertyBounds(t *testing.T) {
	d := NewDict([]string{"a", "b", "c", "d", "e", "f", "g", "h"})
	prop := func(aw, bw []uint8) bool {
		am, bm := map[string]float64{}, map[string]float64{}
		for i, w := range aw {
			am[string(rune('a'+i%8))] = float64(w%16) + 1
		}
		for i, w := range bw {
			bm[string(rune('a'+i%8))] = float64(w%16) + 1
		}
		a, b := d.Vector(am), d.Vector(bm)
		s, s2 := a.Cosine(b), b.Cosine(a)
		if math.Abs(s-s2) > 1e-9 {
			return false
		}
		return s >= -1e-9 && s <= 1+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: k-means distortion is finite and assignment is total.
func TestKMeansPropertyTotalAssignment(t *testing.T) {
	idx, ids, _ := twoTopicIndex(t, 8)
	for seed := int64(0); seed < 10; seed++ {
		cl := kmeans(idx, ids, Options{K: 3, Seed: seed, PlusPlus: seed%2 == 0})
		if len(cl.Assign) != len(ids) {
			t.Fatalf("seed %d: assigned %d of %d", seed, len(cl.Assign), len(ids))
		}
		if math.IsNaN(cl.Distortion) || math.IsInf(cl.Distortion, 0) {
			t.Fatalf("seed %d: bad distortion %v", seed, cl.Distortion)
		}
	}
}

func TestKMeansRestartsPickLowestDistortion(t *testing.T) {
	idx, ids, _ := twoTopicIndex(t, 12)
	single := kmeans(idx, ids, Options{K: 3, Seed: 5, PlusPlus: true})
	multi := kmeans(idx, ids, Options{K: 3, Seed: 5, PlusPlus: true, Restarts: 8})
	if multi.Distortion > single.Distortion+1e-9 {
		t.Errorf("restarts distortion %v above single run %v",
			multi.Distortion, single.Distortion)
	}
	// Restarted runs remain deterministic.
	again := kmeans(idx, ids, Options{K: 3, Seed: 5, PlusPlus: true, Restarts: 8})
	if again.Distortion != multi.Distortion || again.K() != multi.K() {
		t.Error("restarted k-means not deterministic")
	}
}
