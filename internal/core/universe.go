package core

import (
	"repro/internal/cluster"
	"repro/internal/document"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/search"
	"repro/internal/termdict"
)

// Universe is the resolved snapshot of one expansion request's result
// universe: the documents in ascending DocID order, the dense ranking
// weights, the candidate keyword pool and its keyword→document incidence,
// and (on demand) the documents' clustering vectors. Everything a Problem
// needs that depends only on (index, user query, universe, weights, pool
// options) — not on the clustering — lives here, computed once per request
// instead of once per cluster: every per-cluster Problem's C ∪ U is the
// full result set, so the pool scoring and the
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
// ascending DocID order (the search layer's Eval/ResultIDs form); the slice
// is retained, and a document's position in it is its dense ID. weights may
// be nil (unranked).
func NewUniverse(idx *index.Index, userQuery search.Query, ids []document.DocID,
	weights eval.Weights, opts PoolOptions) *Universe {

	u := &Universe{Query: userQuery, idx: idx, docs: ids, w: weights.Dense(ids)}
	n := len(ids)
	u.allB = document.FullBitSet(n)
	tab := getPoolTable(idx.NumTerms())
	u.pool, u.poolTids = scorePool(tab, idx, userQuery, ids, opts)
	// Keyword→document incidence: slots maps each pool TermID to its
	// keyword ID + 1 (pool position = keyword ID, both orders are
	// lexicographic), and is all zero again before the table goes back.
	u.containB = make([]document.BitSet, len(u.pool))
	for ki, tid := range u.poolTids {
		u.containB[ki] = document.NewBitSet(n)
		tab.slots[tid] = int32(ki) + 1
	}
	for di, id := range ids {
		for _, tid := range idx.DocTermIDs(id) {
			if s := tab.slots[tid]; s != 0 {
				u.containB[s-1].Add(di)
			}
		}
	}
	for _, tid := range u.poolTids {
		tab.slots[tid] = 0
	}
	poolTables.Put(tab)
	return u
}

// Docs returns the universe documents in ascending DocID order; a
// document's position is its dense ID, the member index of every bitset
// over this universe. Read-only.
func (u *Universe) Docs() []document.DocID { return u.docs }

// DenseWeights returns the ranking weight of each document by dense ID (nil
// = unranked) — the table eval.SBits and eval.MeasureBits read. Read-only.
func (u *Universe) DenseWeights() []float64 { return u.w }

// Measure is the Section 2 rank-weighted precision/recall/F of a retrieved
// set against a cluster, both bitsets over the universe's dense IDs — how
// queries from outside the solvers (the CS baseline) are scored.
func (u *Universe) Measure(retrieved, cluster document.BitSet) eval.PRF {
	return eval.MeasureBits(retrieved, cluster, u.w, eval.SBits(cluster, u.w))
}

// Pool returns the candidate keyword pool in sorted order. Read-only.
func (u *Universe) Pool() []string { return u.pool }

// Vectors returns the universe documents' clustering vectors (TF over the
// corpus-global TermID space), built on first call and cached — the input
// cluster.KMeansVecs and cluster.Silhouette expect. The first call must not
// race with another; ClusterExpand makes it from the clustering stage.
// Read-only.
func (u *Universe) Vectors() []*cluster.Vector {
	if u.vecs == nil && len(u.docs) > 0 {
		u.vecs = cluster.VectorsFromDocs(u.idx, u.docs)
	}
	return u.vecs
}

// Problems builds one Definition 2.2 problem per cluster set: sets are
// bitsets over the universe's dense IDs (cluster.Clustering.Sets) and must
// partition it, so each problem's C ∪ U is the full universe and the shared
// snapshot state applies verbatim. Each set becomes its problem's C as is —
// the problems retain the sets, which must not be mutated afterwards — and
// U is the word-wise union of the other sets. A few words of bitset work per
// cluster, so the constructions run serially.
func (u *Universe) Problems(sets []document.BitSet) []*Problem {
	problems := make([]*Problem, len(sets))
	for i, c := range sets {
		other := document.NewBitSet(len(u.docs))
		for j, s := range sets {
			if j != i {
				other.Or(s)
			}
		}
		p := &Problem{
			UserQuery: u.Query,
			Pool:      u.pool,
			w:         u.w,
			containB:  u.containB,
			cB:        c,
			uB:        other,
			allB:      u.allB,
		}
		p.sC, p.sU = p.sumBits(p.cB), p.sumBits(p.uB)
		problems[i] = p
	}
	return problems
}
