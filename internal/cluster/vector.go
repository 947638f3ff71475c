// Package cluster implements the result-clustering substrate: sparse
// term-frequency vectors with cosine similarity and k-means (the paper's
// clustering method, Appendix C) with k-means++ seeding. Quality levels
// trade restarts and early abandonment for latency; every level runs the
// same per-restart arithmetic.
//
// Vectors are interned: a Dict built once per clustering run maps terms to
// dense int32 IDs in lexicographic order, and a Vector stores parallel
// sorted ID/weight slices with the Euclidean norm computed at construction
// and cached. Because ID order equals lexicographic term order, merge-join
// Dot and the norm accumulate in exactly the order the earlier map-backed
// representation used (sorted terms), so every similarity — and therefore
// every clustering — is bit-identical to it for a fixed seed.
package cluster

import (
	"math"
	"sort"

	"repro/internal/document"
	"repro/internal/index"
)

// Dict interns the vocabulary of one clustering run. Term IDs are assigned
// in lexicographic order, which is what keeps merge-join accumulation order
// identical to the old sorted-map accumulation (see package comment).
type Dict struct {
	ids   map[string]int32
	terms []string
}

// NewDict builds a dictionary over the given terms (deduplicated, sorted).
func NewDict(terms []string) *Dict {
	uniq := make([]string, len(terms))
	copy(uniq, terms)
	sort.Strings(uniq)
	n := 0
	for i, t := range uniq {
		if i == 0 || t != uniq[i-1] {
			uniq[n] = t
			n++
		}
	}
	uniq = uniq[:n]
	d := &Dict{ids: make(map[string]int32, n), terms: uniq}
	for i, t := range uniq {
		d.ids[t] = int32(i)
	}
	return d
}

// DictForDocs builds the dictionary over every distinct term of the given
// documents — the once-per-run interning step of a clustering.
func DictForDocs(idx *index.Index, docs []document.DocID) *Dict {
	seen := make(map[string]struct{})
	var terms []string
	for _, id := range docs {
		for _, t := range idx.DocTerms(id) {
			if _, ok := seen[t]; !ok {
				seen[t] = struct{}{}
				terms = append(terms, t)
			}
		}
	}
	sort.Strings(terms)
	d := &Dict{ids: make(map[string]int32, len(terms)), terms: terms}
	for i, t := range terms {
		d.ids[t] = int32(i)
	}
	return d
}

// ID returns the interned ID of term.
func (d *Dict) ID(term string) (int32, bool) {
	id, ok := d.ids[term]
	return id, ok
}

// Term returns the term for an interned ID.
func (d *Dict) Term(id int32) string { return d.terms[id] }

// Len returns the vocabulary size (the vector dimension).
func (d *Dict) Len() int { return len(d.terms) }

// Vector is a sparse term-weight vector over a Dict's ID space. Following
// the experimental setup, "each result is modeled as a vector whose
// components are features in the results and the weight of each component
// is the TF of the feature". IDs are sorted ascending; the norm is computed
// at construction and cached, and mutation (Add, Scale) invalidates it.
//
// A Vector is safe for concurrent reads once constructed; Add and Scale
// must not race with readers.
type Vector struct {
	ids    []int32
	ws     []float64
	norm   float64
	normOK bool
}

// newVectorSorted wraps already-sorted parallel slices and caches the norm.
func newVectorSorted(ids []int32, ws []float64) *Vector {
	v := &Vector{ids: ids, ws: ws}
	v.norm = v.computeNorm()
	v.normOK = true
	return v
}

// Vector builds a vector from a term→weight map. Terms absent from the
// dictionary are dropped (the vector is the projection onto d's space).
func (d *Dict) Vector(weights map[string]float64) *Vector {
	ids := make([]int32, 0, len(weights))
	for term := range weights {
		if id, ok := d.ids[term]; ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	ws := make([]float64, len(ids))
	for i, id := range ids {
		ws[i] = weights[d.terms[id]]
	}
	return newVectorSorted(ids, ws)
}

// VectorFromDoc builds the TF vector of a document from the index, projected
// onto this dictionary's local ID space. Because the index keeps DocTermIDs
// sorted and both ID orders are lexicographic, the output slices come out
// sorted without a per-vector sort. Corpus-backed clustering no longer
// interns a per-run Dict — see VectorsFromDocs — so this path serves
// standalone dictionaries and tests.
func (d *Dict) VectorFromDoc(idx *index.Index, id document.DocID) *Vector {
	terms := idx.DocTerms(id)
	freqs := idx.DocTermFreqs(id)
	ids := make([]int32, 0, len(terms))
	ws := make([]float64, 0, len(terms))
	for i, t := range terms {
		if tid, ok := d.ids[t]; ok {
			ids = append(ids, tid)
			ws = append(ws, float64(freqs[i]))
		}
	}
	return newVectorSorted(ids, ws)
}

// VectorsFromDocs builds the TF vectors of documents over the index's
// corpus-global TermID space, one per id in order: each ID slice is the
// document's arena slice itself (shared, read-only — Vector never mutates
// its ids in place) and only the weights are materialized, all of them in
// one arena. One []Vector holds the vectors, so a result set costs three
// allocations, not two per document. No dictionary, no string, no per-run
// interning. Global TermIDs are lexicographic like Dict IDs, so dot
// products and norms accumulate in the identical order.
func VectorsFromDocs(idx *index.Index, ids []document.DocID) []*Vector {
	nnz := 0
	for _, id := range ids {
		nnz += len(idx.DocTermFreqs(id))
	}
	arena := make([]float64, nnz)
	vs := make([]Vector, len(ids))
	out := make([]*Vector, len(ids))
	for i, id := range ids {
		freqs := idx.DocTermFreqs(id)
		ws := arena[:len(freqs):len(freqs)]
		arena = arena[len(freqs):]
		for j, f := range freqs {
			ws[j] = float64(f)
		}
		v := &vs[i]
		v.ids, v.ws = idx.DocTermIDs(id), ws
		v.norm, v.normOK = v.computeNorm(), true
		out[i] = v
	}
	return out
}

// Len returns the number of non-zero components.
func (v *Vector) Len() int { return len(v.ids) }

// computeNorm accumulates in ascending ID (= sorted term) order.
func (v *Vector) computeNorm() float64 {
	s := 0.0
	for _, w := range v.ws {
		s += w * w
	}
	return math.Sqrt(s)
}

// Norm returns the Euclidean norm, cached since construction or the last
// mutation.
func (v *Vector) Norm() float64 {
	if !v.normOK {
		v.norm = v.computeNorm()
		v.normOK = true
	}
	return v.norm
}

// Dot returns the dot product v·u by merge-joining the sorted ID slices.
// Common terms are visited in ascending ID order — the same order the old
// map-backed Dot visited its sorted term set — so the sum is bit-identical.
func (v *Vector) Dot(u *Vector) float64 {
	s := 0.0
	i, j := 0, 0
	for i < len(v.ids) && j < len(u.ids) {
		a, b := v.ids[i], u.ids[j]
		switch {
		case a == b:
			s += v.ws[i] * u.ws[j]
			i++
			j++
		case a < b:
			i++
		default:
			j++
		}
	}
	return s
}

// Cosine returns the cosine similarity between v and u in [0,1] for
// non-negative weights; 0 when either vector is empty.
func (v *Vector) Cosine(u *Vector) float64 {
	nv, nu := v.Norm(), u.Norm()
	if nv == 0 || nu == 0 {
		return 0
	}
	return v.Dot(u) / (nv * nu)
}

// CosineDistance returns 1 - cosine similarity, the distance k-means
// minimizes here.
func (v *Vector) CosineDistance(u *Vector) float64 { return 1 - v.Cosine(u) }

// Add accumulates u into v and invalidates the cached norm.
func (v *Vector) Add(u *Vector) {
	ids := make([]int32, 0, len(v.ids)+len(u.ids))
	ws := make([]float64, 0, len(v.ids)+len(u.ids))
	i, j := 0, 0
	for i < len(v.ids) || j < len(u.ids) {
		switch {
		case j == len(u.ids) || (i < len(v.ids) && v.ids[i] < u.ids[j]):
			ids = append(ids, v.ids[i])
			ws = append(ws, v.ws[i])
			i++
		case i == len(v.ids) || u.ids[j] < v.ids[i]:
			ids = append(ids, u.ids[j])
			ws = append(ws, u.ws[j])
			j++
		default:
			ids = append(ids, v.ids[i])
			ws = append(ws, v.ws[i]+u.ws[j])
			i++
			j++
		}
	}
	v.ids, v.ws = ids, ws
	v.normOK = false
}

// Scale multiplies every weight by f and invalidates the cached norm.
func (v *Vector) Scale(f float64) {
	for i := range v.ws {
		v.ws[i] *= f
	}
	v.normOK = false
}

// Clone returns an independent copy (the norm cache carries over).
func (v *Vector) Clone() *Vector {
	out := &Vector{
		ids:    make([]int32, len(v.ids)),
		ws:     make([]float64, len(v.ws)),
		norm:   v.norm,
		normOK: v.normOK,
	}
	copy(out.ids, v.ids)
	copy(out.ws, v.ws)
	return out
}

// Weight returns the weight of the component with the given ID (0 when
// absent), by binary search.
func (v *Vector) Weight(id int32) float64 {
	i := sort.Search(len(v.ids), func(i int) bool { return v.ids[i] >= id })
	if i < len(v.ids) && v.ids[i] == id {
		return v.ws[i]
	}
	return 0
}

// ToMap converts back to a term→weight map, for tests and debugging.
func (v *Vector) ToMap(d *Dict) map[string]float64 {
	out := make(map[string]float64, len(v.ids))
	for i, id := range v.ids {
		out[d.terms[id]] = v.ws[i]
	}
	return out
}

// Mean returns the centroid of vs (the zero vector for empty input): the
// merge-join sum of vs in input order, so each component accumulates in
// input order, scaled by 1/len(vs). It is the sparse reference the k-means
// centroid update (centroid.setMean) is pinned against.
func Mean(vs []*Vector) *Vector {
	out := newVectorSorted(nil, nil)
	for _, v := range vs {
		out.Add(v)
	}
	if len(vs) > 0 {
		out.Scale(1 / float64(len(vs)))
	}
	return out
}

// TopTerms returns the n highest-weight terms of v, ties broken
// alphabetically (ascending ID = alphabetical), used for cluster labels and
// debugging.
func (v *Vector) TopTerms(d *Dict, n int) []string {
	order := make([]int, len(v.ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if v.ws[i] != v.ws[j] {
			return v.ws[i] > v.ws[j]
		}
		return v.ids[i] < v.ids[j]
	})
	if n > len(order) {
		n = len(order)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = d.terms[v.ids[order[i]]]
	}
	return out
}
