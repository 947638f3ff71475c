package core

import (
	"repro/internal/cluster"
	"repro/internal/document"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/par"
	"repro/internal/search"
	"repro/internal/termdict"
)

// Universe is the resolved snapshot of one expansion request's result
// universe: the documents in ascending DocID order, the dense ranking
// weights, the candidate keyword pool and its keyword→document incidence,
// and (on demand) the documents' clustering vectors. Everything a Problem
// needs that depends only on (index, user query, universe, weights, pool
// options) — not on the clustering — lives here, computed once per request
// instead of once per cluster: every per-cluster Problem has
// Universe = C ∪ U = the full result set, so the pool scoring and the
// DocTermIDs incidence scan are identical across clusters, and the
// clustering's vector build walks the same arena rows again. One snapshot
// serves all of them.
//
// The shared state is strictly read-only after construction (the solving
// algorithms only read containB/allB and clone what they mutate), so
// Problems derived from one Universe are safe to solve concurrently and
// bit-identical to independently constructed ones.
type Universe struct {
	// Query is the user query the universe was retrieved for.
	Query search.Query
	// Weights are the ranking weights (nil = unranked).
	Weights eval.Weights
	// Set is the universe membership as a DocSet, shared by every derived
	// Problem as its Universe field.
	Set document.DocSet

	idx  *index.Index
	docs []document.DocID
	w    []float64
	allB document.BitSet

	pool     []string
	poolTids []termdict.TermID
	containB []document.BitSet

	vecs []*cluster.Vector
}

// NewUniverse resolves the snapshot for a result universe. ids must be in
// ascending DocID order (the search layer's Eval/ResultIDs form, or
// DocSet.IDs()); the slice is retained. weights may be nil.
func NewUniverse(idx *index.Index, userQuery search.Query, ids []document.DocID,
	weights eval.Weights, opts PoolOptions) *Universe {

	u := &Universe{
		Query:   userQuery,
		Weights: weights,
		Set:     document.NewDocSet(ids...),
		idx:     idx,
		docs:    ids,
	}
	n := len(ids)
	if weights != nil {
		u.w = make([]float64, n)
		for i, id := range ids {
			if wv, ok := weights[id]; ok && wv > 0 {
				u.w[i] = wv
			} else {
				u.w[i] = 1
			}
		}
	}
	u.allB = document.FullBitSet(n)
	u.pool, u.poolTids = scorePool(idx, userQuery, ids, opts)
	// Keyword→document incidence by merge-join: pool TermIDs and each
	// document's TermIDs are both ascending, and pool position = keyword ID
	// (both orders are lexicographic).
	u.containB = make([]document.BitSet, len(u.pool))
	for ki := range u.pool {
		u.containB[ki] = document.NewBitSet(n)
	}
	for di, id := range ids {
		pi := 0
		for _, tid := range idx.DocTermIDs(id) {
			for pi < len(u.poolTids) && u.poolTids[pi] < tid {
				pi++
			}
			if pi == len(u.poolTids) {
				break
			}
			if u.poolTids[pi] == tid {
				u.containB[pi].Add(di)
				pi++
			}
		}
	}
	return u
}

// Docs returns the universe documents in ascending DocID order. Read-only.
func (u *Universe) Docs() []document.DocID { return u.docs }

// Pool returns the candidate keyword pool in sorted order. Read-only.
func (u *Universe) Pool() []string { return u.pool }

// Vectors returns the universe documents' clustering vectors (TF over the
// corpus-global TermID space), built on first call and cached — the input
// cluster.KMeansVecs and cluster.Silhouette expect. The first call must not
// race with another; ClusterExpand makes it from the clustering stage.
// Read-only.
func (u *Universe) Vectors() []*cluster.Vector {
	if u.vecs == nil && len(u.docs) > 0 {
		u.vecs = make([]*cluster.Vector, len(u.docs))
		for i, id := range u.docs {
			u.vecs[i] = cluster.VectorFromDocGlobal(u.idx, id)
		}
	}
	return u.vecs
}

// Problems builds one Definition 2.2 problem per cluster set. The sets must
// partition the universe (every cluster of the request's results does), so
// each problem's C ∪ U is the full universe and the shared snapshot state
// applies verbatim. The per-cluster constructions fan out through par.For.
func (u *Universe) Problems(sets []document.DocSet) []*Problem {
	problems := make([]*Problem, len(sets))
	par.For(len(sets), func(i int) {
		other := document.DocSet{}
		for j, s := range sets {
			if j != i {
				other = other.Union(s)
			}
		}
		problems[i] = u.problem(sets[i], other)
	})
	return problems
}

// problem derives one Problem for cluster c (other = the union of the other
// clusters). Only the cluster-dependent dense state — cB/uB and their sums —
// is built fresh; docs, weights, pool, incidence and the full-universe
// bitset are the shared read-only snapshot.
func (u *Universe) problem(c, other document.DocSet) *Problem {
	p := &Problem{
		UserQuery: u.Query,
		C:         c,
		U:         other,
		Universe:  u.Set,
		Weights:   u.Weights,
		Pool:      u.pool,
	}
	p.docs = u.docs
	p.w = u.w
	p.allB = u.allB
	p.containB = u.containB
	n := len(u.docs)
	p.cB, p.uB = document.NewBitSet(n), document.NewBitSet(n)
	for i, id := range u.docs {
		if c.Contains(id) {
			p.cB.Add(i)
		}
		if other.Contains(id) {
			p.uB.Add(i)
		}
	}
	p.sC, p.sU = p.sumBits(p.cB), p.sumBits(p.uB)
	return p
}
