package core

// The map-backed reference the dense Problem is checked against. A docSet
// is a plain set of DocIDs with the algebra Definition 2.2 is written in;
// refS and refMeasure are Section 2's S(·) and P/R/F over it, and a
// refProblem holds one instance as maps — C, U, the universe C ∪ U, the
// rank weights and each keyword's containing documents. newRef builds the
// dense Problem the production code solves from those same maps, so the
// dense-vs-map tests, the paper's worked examples and the PEBC tests all
// start from the map form.

import (
	"sort"

	"repro/internal/document"
	"repro/internal/eval"
	"repro/internal/search"
)

// docSet is a set of document IDs.
type docSet map[document.DocID]struct{}

func newDocSet(ids ...document.DocID) docSet {
	s := make(docSet, len(ids))
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

func (s docSet) Contains(id document.DocID) bool {
	_, ok := s[id]
	return ok
}

func (s docSet) Add(id document.DocID) { s[id] = struct{}{} }

func (s docSet) Len() int { return len(s) }

func (s docSet) Clone() docSet { return s.Union(nil) }

// Intersect returns s ∩ t.
func (s docSet) Intersect(t docSet) docSet {
	out := docSet{}
	for id := range s {
		if t.Contains(id) {
			out.Add(id)
		}
	}
	return out
}

// Union returns s ∪ t.
func (s docSet) Union(t docSet) docSet {
	out := make(docSet, len(s)+len(t))
	for id := range s {
		out.Add(id)
	}
	for id := range t {
		out.Add(id)
	}
	return out
}

// Subtract returns s \ t.
func (s docSet) Subtract(t docSet) docSet {
	out := docSet{}
	for id := range s {
		if !t.Contains(id) {
			out.Add(id)
		}
	}
	return out
}

// IDs returns the members sorted ascending.
func (s docSet) IDs() []document.DocID {
	out := make([]document.DocID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s docSet) Equal(t docSet) bool {
	return len(s) == len(t) && s.Intersect(t).Len() == len(s)
}

// refS is S(·) of Section 2: the total ranking score of a set, its
// cardinality when w is nil. A document missing from w, or scored ≤ 0,
// counts 1. The sum runs in sorted document order, so it is reproducible.
func refS(w eval.Weights, set docSet) float64 {
	if w == nil {
		return float64(set.Len())
	}
	total := 0.0
	for _, id := range set.IDs() {
		if s, ok := w[id]; ok && s > 0 {
			total += s
		} else {
			total += 1
		}
	}
	return total
}

// refMeasure is the rank-weighted precision, recall and F-measure of a
// retrieved set against cluster C, per Section 2; empty sets measure 0.
func refMeasure(retrieved, cluster docSet, w eval.Weights) eval.PRF {
	if retrieved.Len() == 0 || cluster.Len() == 0 {
		return eval.PRF{}
	}
	inter := refS(w, retrieved.Intersect(cluster))
	p := inter / refS(w, retrieved)
	r := inter / refS(w, cluster)
	return eval.PRF{Precision: p, Recall: r, F: eval.FMeasure(p, r)}
}

// refProblem is one Definition 2.2 instance held as maps, beside the dense
// Problem built from it. Every universe document contains the user query's
// own keywords (it is one of its results); contain maps each candidate
// keyword to the universe documents containing it.
type refProblem struct {
	p *Problem
	// ids is the universe in ascending DocID order: ids[di] is the document
	// of dense ID di.
	ids       []document.DocID
	c, u, all docSet
	w         eval.Weights
	contain   map[string]docSet
}

// newRef builds the dense Problem for (userQuery, c, u, w, contain): the
// universe c ∪ u numbered in ascending DocID order, the weights resolved by
// that numbering, the pool sorted, and one incidence bitmap per keyword.
func newRef(userQuery search.Query, c, u docSet, w eval.Weights,
	contain map[string]docSet) *refProblem {

	r := &refProblem{c: c, u: u, all: c.Union(u), w: w, contain: contain}
	r.ids = r.all.IDs()
	n := len(r.ids)
	p := &Problem{
		UserQuery: userQuery,
		w:         w.Dense(r.ids),
		cB:        r.bits(c),
		uB:        r.bits(u),
		allB:      document.FullBitSet(n),
	}
	for k := range contain {
		p.Pool = append(p.Pool, k)
	}
	sort.Strings(p.Pool)
	p.containB = make([]document.BitSet, len(p.Pool))
	for ki, k := range p.Pool {
		p.containB[ki] = r.bits(contain[k])
	}
	p.sC, p.sU = p.sumBits(p.cB), p.sumBits(p.uB)
	r.p = p
	return r
}

// newProblemFromSets is newRef's dense Problem alone.
func newProblemFromSets(userQuery search.Query, c, u docSet, w eval.Weights,
	contain map[string]docSet) *Problem {
	return newRef(userQuery, c, u, w, contain).p
}

// bits maps the universe members of s to a bitset over dense IDs.
func (r *refProblem) bits(s docSet) document.BitSet {
	b := document.NewBitSet(len(r.ids))
	for di, id := range r.ids {
		if s.Contains(id) {
			b.Add(di)
		}
	}
	return b
}

// set maps a dense set back to its documents.
func (r *refProblem) set(b document.BitSet) docSet {
	out := docSet{}
	b.ForEach(func(di int) { out.Add(r.ids[di]) })
	return out
}

// retrieve is R(q) restricted to the universe, the map way: every universe
// document, filtered by each expansion term's containing set. A term outside
// the candidate keywords retrieves nothing.
func (r *refProblem) retrieve(q search.Query) docSet {
	out := r.all.Clone()
	for _, term := range q.Terms {
		if r.p.UserQuery.Contains(term) {
			continue
		}
		set, ok := r.contain[term]
		if !ok {
			return docSet{}
		}
		out = out.Intersect(set)
	}
	return out
}

// retrieveOR is R(q) under OR semantics: the union of the terms' sets.
func (r *refProblem) retrieveOR(q search.Query) docSet {
	out := docSet{}
	for _, term := range q.Terms {
		out = out.Union(r.contain[term])
	}
	return out
}
