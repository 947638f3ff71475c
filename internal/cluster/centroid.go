package cluster

import (
	"math"
	"math/bits"
)

// termSpace is the local term space of one k-means call: the union of its
// vectors' TermIDs, numbered densely 0..L−1 in ascending global order. A
// result set uses a few hundred of the corpus's terms, so centroids over
// this space are L cells instead of vocabulary-sized. Renumbering preserves
// the order of every ID slice, so each sum accumulates in the same order
// as over global IDs.
type termSpace struct {
	// size is L, the number of distinct terms.
	size int
	// vecs are the input vectors re-expressed over local IDs. They share
	// the inputs' weights and cached norms.
	vecs []*Vector
}

// spaceWord is one 64-term word of a termSpace's union bitmap.
type spaceWord struct {
	bits uint64
	base int32 // local ID of the word's lowest set bit
}

// termSpace builds the local space of vecs, whose IDs lie in [0, dim), in
// s's buffers. The union is a dim-bit bitmap; a point's local ID is its
// bit's rank, the count of set bits below it.
func (s *scratch) termSpace(dim int, vecs []*Vector) termSpace {
	words := fit(&s.words, (dim+63)>>6)
	clear(words)
	nnz := 0
	for _, v := range vecs {
		nnz += len(v.ids)
		for _, id := range v.ids {
			words[id>>6].bits |= 1 << (id & 63)
		}
	}
	l := 0
	for i := range words {
		words[i].base = int32(l)
		l += bits.OnesCount64(words[i].bits)
	}

	arena := fit(&s.arena, nnz)
	local := fit(&s.local, len(vecs))
	out := fit(&s.vecs, len(vecs))
	for i, v := range vecs {
		ids := take(&arena, len(v.ids))
		for j, id := range v.ids {
			w := words[id>>6]
			ids[j] = w.base + int32(bits.OnesCount64(w.bits&(1<<(id&63)-1)))
		}
		local[i] = Vector{ids: ids, ws: v.ws, norm: v.Norm(), normOK: true}
		out[i] = &local[i]
	}
	return termSpace{size: l, vecs: out}
}

// centroid is a k-means centroid in dense form over a termSpace: one cell
// per local term, plus the cached Euclidean norm. Points stay sparse; with
// the centroid dense, a point·centroid dot product is a gather loop over
// the point's IDs — no merge-join, no branches.
//
// Bit-identity with the sparse merge-join implementation: the gather visits
// the point's IDs ascending; IDs the sparse merge-join would skip (absent
// from the centroid) read an exact 0.0 from the dense cells, and adding
// w·0 = +0.0 to a non-negative partial sum never changes its bits.
type centroid struct {
	vals []float64
	norm float64
}

// setFromVector scatters a sparse point into the centroid (the seeding step:
// initial centroids are copies of points). The norm carries over from the
// point's construction-time cache, exactly as Clone used to carry it.
func (c *centroid) setFromVector(v *Vector) {
	clear(c.vals)
	for i, id := range v.ids {
		c.vals[id] = v.ws[i]
	}
	c.norm = v.Norm()
}

// dotVec gathers the dot product point·centroid over the point's IDs in
// ascending order (see the bit-identity note on centroid).
func (c *centroid) dotVec(v *Vector) float64 {
	s := 0.0
	vals := c.vals
	for i, id := range v.ids {
		s += v.ws[i] * vals[id]
	}
	return s
}

// cosDist is 1 − cosine(point, centroid), the distance k-means minimizes —
// the same arithmetic as Vector.CosineDistance (empty operands score
// similarity 0, distance 1).
func (c *centroid) cosDist(v *Vector) float64 {
	nv := v.Norm()
	if nv == 0 || c.norm == 0 {
		return 1
	}
	return 1 - c.dotVec(v)/(nv*c.norm)
}

// setMean recomputes the centroid as the mean of vs, bit-identical to Mean:
// components accumulate in input order into the zeroed buffer acc, then
// are scaled by 1/len(vs) in ascending ID order, with the norm accumulated
// in that same order. Cells no vector touches stay 0 and add +0 to the
// norm, so scanning all cells needs no sorted support. acc becomes the
// centroid's cells; the old cells are returned for the next update to
// accumulate into. vs must be non-empty.
func (c *centroid) setMean(vs []*Vector, acc []float64) (old []float64) {
	clear(acc)
	for _, v := range vs {
		for i, id := range v.ids {
			acc[id] += v.ws[i]
		}
	}
	f := 1 / float64(len(vs))
	norm := 0.0
	for id, s := range acc {
		w := s * f
		acc[id] = w
		norm += w * w
	}
	old, c.vals, c.norm = c.vals, acc, math.Sqrt(norm)
	return old
}
