// Package core implements the paper's primary contribution: generating an
// expanded query for each cluster of keyword-search results such that the
// expanded query's result set is as close to the cluster as possible
// (Definition 2.2), plus the full QEC problem over all clusters
// (Definition 2.1). The two published algorithms — ISKR (Section 3) and
// PEBC (Section 4) — are implemented here, along with the F-measure ISKR
// variant and the rejected PEBC keyword-selection strategies (§4.1, §4.2)
// used for ablation.
//
// One document-set representation runs from clustering to the solvers: a
// Universe lists the request's results in ascending DocID order, a
// document's dense ID is its position there, and every set — a k-means
// cluster (cluster.Clustering.Sets), a Problem's C and U, a retrieved R(q)
// — is a document.BitSet over those positions. Pool keywords are interned to
// int32 IDs in lexicographic (= Pool slice) order, keyword→document
// incidence is stored as per-keyword bitmaps, and the benefit/cost/count
// tables are flat slices indexed by keyword ID. Set algebra in the
// algorithms is therefore word-wise bitset arithmetic, and every
// floating-point accumulation folds members in ascending dense-ID order —
// the sorted-DocID order — so outputs are bit-identical for fixed seeds
// (pinned by the expansion golden test in internal/experiment).
package core

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/document"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/search"
	"repro/internal/termdict"
)

// Problem is one instance of Definition 2.2: a user query, a target cluster
// C, the set U of results in all other clusters, and optional ranking
// weights. C and U are bitsets over the universe's dense document IDs (see
// Universe); all candidate keywords and incidence structures are
// precomputed so the algorithms can evaluate R(q) restricted to the
// universe cheaply.
type Problem struct {
	UserQuery search.Query

	// Pool is the candidate keyword vocabulary (the paper's setup: the
	// top-20% of result words by tfidf), excluding the user query's own
	// terms. Sorted for determinism; the position of a keyword in Pool is
	// its dense keyword ID.
	Pool []string

	// Trail, when non-nil, receives the solver's decision record (initial
	// candidate table, applied moves / probed samples, rejected
	// alternatives) — the EXPLAIN surface. nil (the default) records
	// nothing and costs nothing; see Trail for the bit-identity contract.
	Trail *Trail

	// w holds the ranking weight of each dense document (nil when unranked;
	// missing or non-positive weights already resolved to 1).
	w []float64

	// containB[k] is the bitmap of universe documents containing pool
	// keyword k (keyword IDs are positions in the sorted Pool; kwID inverts
	// by binary search). E(k) ∩ Universe (the documents k eliminates) is its
	// complement.
	containB []document.BitSet

	// resolver holds the per-candidate-query resolution cache (see
	// queryResolver) between F-measure evaluations. An atomic swap-out /
	// store-back rather than a plain field so concurrent evaluations on the
	// same Problem each see a private cache (a loser simply starts cold).
	resolver atomic.Pointer[queryResolver]

	// elim holds PEBC's partial-elimination state between Expands, swapped
	// out for the duration of one like resolver: PEBC.Expand resets one
	// state for each of its sample queries, and a Problem expanded again
	// (the experiment runner and the figure benchmarks re-solve prepared
	// problems) reuses it.
	elim atomic.Pointer[elimState]

	// cB/uB/allB are C, U and the universe C ∪ U; sC and sU cache S(C) and
	// S(U), constant per problem.
	cB, uB, allB document.BitSet
	sC, sU       float64

	// Cached benefit/cost/elimination-count of every pool keyword against
	// the *unrefined* query (R(q) = Universe), computed once and copied by
	// each PEBC partial-elimination run.
	baseOnce    sync.Once
	baseBenefit []float64
	baseCost    []float64
	baseCount   []int
}

// nDocs returns the universe size (the dense doc ID bound).
func (p *Problem) nDocs() int { return p.allB.N() }

// kwID returns the dense keyword ID of k — its position in the sorted Pool —
// by binary search. No map is kept: the Pool is small and already sorted.
func (p *Problem) kwID(k string) (int32, bool) {
	i := sort.SearchStrings(p.Pool, k)
	if i < len(p.Pool) && p.Pool[i] == k {
		return int32(i), true
	}
	return 0, false
}

// accum adds the weights of the set bits of one bitset word to acc, folding
// in ascending dense-ID order. It delegates to eval.AccumWord — the single
// fold implementation both packages must share for bit-identical sums.
func (p *Problem) accum(acc float64, wi int, word uint64) float64 {
	return eval.AccumWord(acc, wi, word, p.w)
}

// sumBits returns the total ranking score of a dense set.
func (p *Problem) sumBits(b document.BitSet) float64 {
	total := 0.0
	for wi, word := range b.Words() {
		total = p.accum(total, wi, word)
	}
	return total
}

// weightAt returns the ranking weight of dense doc di.
func (p *Problem) weightAt(di int) float64 {
	if p.w == nil {
		return 1
	}
	return p.w[di]
}

// baseTables lazily computes the initial benefit/cost/count tables, indexed
// by dense keyword ID.
func (p *Problem) baseTables() ([]float64, []float64, []int) {
	p.baseOnce.Do(func() {
		nk := len(p.Pool)
		p.baseBenefit = make([]float64, nk)
		p.baseCost = make([]float64, nk)
		p.baseCount = make([]int, nk)
		uw := p.uB.Words()
		allw := p.allB.Words()
		for ki := 0; ki < nk; ki++ {
			cw := p.containB[ki].Words()
			var b, c float64
			n := 0
			for wi := range allw {
				x := allw[wi] &^ cw[wi] // universe docs k eliminates
				if x == 0 {
					continue
				}
				n += bits.OnesCount64(x)
				b = p.accum(b, wi, x&uw[wi])
				c = p.accum(c, wi, x&^uw[wi])
			}
			p.baseBenefit[ki], p.baseCost[ki], p.baseCount[ki] = b, c, n
		}
	})
	return p.baseBenefit, p.baseCost, p.baseCount
}

// PoolOptions configures candidate-keyword selection.
type PoolOptions struct {
	// TopFraction keeps this fraction of the distinct result terms, ranked
	// by summed tfidf over the universe (paper: 0.20).
	TopFraction float64
	// MinKeywords is a floor so tiny result sets keep a usable pool.
	MinKeywords int
	// MaxKeywords caps the pool (0 = no cap).
	MaxKeywords int
}

// DefaultPoolOptions mirrors the paper's experimental setup.
func DefaultPoolOptions() PoolOptions {
	return PoolOptions{TopFraction: 0.20, MinKeywords: 10}
}

// poolTable is the working memory of a universe's pool scoring and
// incidence scan: a score and a pool slot per global TermID, both all zero
// between uses, and the TermIDs touched so far.
type poolTable struct {
	scores  []float64
	slots   []int32
	touched []termdict.TermID
}

// poolTables recycles the tables, so a request costs no vocabulary-sized
// allocation.
var poolTables = sync.Pool{New: func() any { return new(poolTable) }}

// getPoolTable takes a table sized for a vocab-term index from poolTables.
func getPoolTable(vocab int) *poolTable {
	t := poolTables.Get().(*poolTable)
	if cap(t.scores) < vocab {
		t.scores, t.slots = make([]float64, vocab), make([]int32, vocab)
	}
	t.scores, t.slots = t.scores[:vocab], t.slots[:vocab]
	return t
}

// scorePool ranks the distinct terms of the universe by summed TF-IDF in a
// flat []float64 indexed by global TermID — no string map anywhere — and
// returns the cut pool as parallel term/TermID slices, both in ascending
// TermID (= lexicographic) order. It scores in tab, which it leaves all
// zero again by re-zeroing only the touched cells.
//
// Accumulation order is the historical one: documents ascending by DocID,
// terms ascending within each document (TermID order is lexicographic, the
// order the sorted DocTerms strings were walked in), so the sums — and hence
// the pool cut — are bit-identical to the map-backed implementation.
func scorePool(tab *poolTable, idx *index.Index, userQuery search.Query, universeIDs []document.DocID,
	opts PoolOptions) ([]string, []termdict.TermID) {

	// The user query's own terms are excluded from the pool; resolve them to
	// sorted TermIDs once so the per-occurrence skip is a merge, not a map.
	skip := termdict.SkipList{IDs: termdict.ResolveSorted(idx.Dict(), userQuery.Terms)}

	scores, touched := tab.scores, tab.touched[:0]
	for _, id := range universeIDs {
		tids := idx.DocTermIDs(id)
		freqs := idx.DocTermFreqs(id)
		skip.Reset()
		for i, tid := range tids {
			if skip.Contains(tid) {
				continue
			}
			// Every contribution is > 0 (freq ≥ 1 and IDF > 0 for any
			// indexed term), so a zero score marks first touch.
			if scores[tid] == 0 {
				touched = append(touched, tid)
			}
			scores[tid] += float64(freqs[i]) * idx.IDFByID(tid)
		}
	}

	ranked := touched
	slices.SortFunc(ranked, func(a, b termdict.TermID) int {
		switch {
		case scores[a] > scores[b]:
			return -1
		case scores[a] < scores[b]:
			return 1
		case a < b: // TermID order = lexicographic order
			return -1
		default:
			return 1
		}
	})

	keep := int(math.Ceil(opts.TopFraction * float64(len(ranked))))
	if keep < opts.MinKeywords {
		keep = opts.MinKeywords
	}
	if opts.MaxKeywords > 0 && keep > opts.MaxKeywords {
		keep = opts.MaxKeywords
	}
	if keep > len(ranked) {
		keep = len(ranked)
	}
	poolTids := make([]termdict.TermID, keep)
	copy(poolTids, ranked[:keep])
	slices.Sort(poolTids)
	pool := make([]string, keep)
	for i, tid := range poolTids {
		pool[i] = idx.TermByID(tid)
	}
	for _, tid := range touched {
		scores[tid] = 0
	}
	tab.touched = touched
	return pool, poolTids
}

// ScorePool exposes the candidate-pool selection (the paper's "top 20% of
// result words by tfidf") on its own: given the user query and the universe
// of its results, it returns the pool in sorted order. Exported for the
// PoolScoring benchmark, which pins that this path performs zero map
// allocations.
func ScorePool(idx *index.Index, userQuery search.Query, universeIDs []document.DocID,
	opts PoolOptions) []string {
	tab := getPoolTable(idx.NumTerms())
	pool, _ := scorePool(tab, idx, userQuery, universeIDs, opts)
	poolTables.Put(tab)
	return pool
}

// queryResolver caches the keyword-ID resolution — and the running
// intersection — of one incrementally built candidate query. terms holds the
// last resolved term sequence and bufs[i] the intersection R(terms[:i+1])
// restricted to the universe (each term resolves to kwSkip for the user
// query's own terms, kwForeign for terms outside the pool, or its dense
// keyword ID; only the level buffer records the outcome).
//
// Candidate queries are built by With/Without off a shared base, so
// successive retrieveBits calls share almost their whole term prefix: the
// prefix check is a handful of pointer-equal string compares (With copies
// string headers, not bytes), the shared intersection is read straight out
// of bufs, and only the tail term resolves and intersects. Tail resolution
// itself rarely needs the binary search: the ISKR/delta-F add loops walk the
// sorted Pool in order, so the next tail is almost always the pool entry
// right after the previous one — hint remembers it and a single string
// compare confirms. This restores the delta-F ablation cost the PR 4
// keyword-map removal regressed, without reintroducing a map into
// problem construction: the cache is lazily populated scratch, swapped in and out of
// Problem.resolver around each call.
type queryResolver struct {
	terms []string
	bufs  []document.BitSet
	hint  int32
}

const (
	kwSkip    int32 = -1 // a user-query term: satisfied by construction
	kwForeign int32 = -2 // outside the pool: retrieves nothing
)

// retrieveLevel computes R(q) restricted to the universe in dense space: the
// universe documents containing every expansion term of q, as word-wise
// intersections of the term bitmaps. The user query's own terms are
// satisfied by construction (every universe document is a result of the user
// query), so only terms beyond the user query filter; a term outside the
// pool retrieves nothing (we only expand with pool keywords; the kwForeign
// level guards foreign queries). Intersections apply in q.Terms order
// exactly as the uncached implementation did — the per-level buffers only
// memoize the identical word-wise results.
//
// The returned set aliases the resolver's level buffers (or allB for an
// empty query): it is valid only until the resolver — checked out of
// p.resolver and returned here — is stored back. Callers must treat it as
// read-only, then Store the resolver.
func (p *Problem) retrieveLevel(q search.Query) (*queryResolver, document.BitSet) {
	rv := p.resolver.Swap(nil)
	if rv == nil {
		rv = &queryResolver{hint: -1}
	}
	terms := q.Terms
	n := len(rv.terms)
	if len(terms) < n {
		n = len(terms)
	}
	l := 0
	for l < n && rv.terms[l] == terms[l] {
		l++
	}
	rv.terms = append(rv.terms[:l], terms[l:]...)
	for i := l; i < len(terms); i++ {
		t := terms[i]
		ki := kwForeign
		if p.UserQuery.Contains(t) {
			ki = kwSkip
		} else if h := rv.hint + 1; h > 0 && int(h) < len(p.Pool) && p.Pool[h] == t {
			ki = h
			rv.hint = h
		} else if k, ok := p.kwID(t); ok {
			ki = k
			rv.hint = k
		}
		if i >= len(rv.bufs) {
			rv.bufs = append(rv.bufs, document.NewBitSet(p.nDocs()))
		}
		buf := rv.bufs[i]
		prev := p.allB
		if i > 0 {
			prev = rv.bufs[i-1]
		}
		switch ki {
		case kwSkip:
			buf.CopyFrom(prev)
		case kwForeign:
			buf.Clear()
		default:
			buf.AndOf(prev, p.containB[ki])
		}
	}
	if len(terms) == 0 {
		return rv, p.allB
	}
	return rv, rv.bufs[len(terms)-1]
}

// retrieveBits is retrieveLevel with an owned (cloned) result, for callers
// that keep the set.
func (p *Problem) retrieveBits(q search.Query) document.BitSet {
	rv, lv := p.retrieveLevel(q)
	r := lv.Clone()
	p.resolver.Store(rv)
	return r
}

// measureBits evaluates a dense retrieved set against the cluster.
func (p *Problem) measureBits(r document.BitSet) eval.PRF {
	return eval.MeasureBits(r, p.cB, p.w, p.sC)
}

// FMeasure evaluates a candidate expanded query against the cluster. The
// measure reads straight off the cached level buffer — no per-evaluation
// clone — which is safe because the resolver stays checked out until the
// measure is done.
func (p *Problem) FMeasure(q search.Query) float64 {
	rv, lv := p.retrieveLevel(q)
	f := p.measureBits(lv).F
	p.resolver.Store(rv)
	return f
}

// Measure returns full precision/recall/F of a candidate expanded query.
func (p *Problem) Measure(q search.Query) eval.PRF {
	rv, lv := p.retrieveLevel(q)
	m := p.measureBits(lv)
	p.resolver.Store(rv)
	return m
}

// retrieveORBits computes R(q) under OR semantics restricted to the
// universe: the universe documents containing at least one of q's terms.
// The AND-path resolution cache does not apply (its levels memoize
// intersections), and the OR expander is not on the delta-F hot path.
func (p *Problem) retrieveORBits(q search.Query) document.BitSet {
	out := document.NewBitSet(p.nDocs())
	for _, t := range q.Terms {
		if ki, ok := p.kwID(t); ok {
			out.Or(p.containB[ki])
		}
	}
	return out
}

// MeasureOR evaluates a candidate query under OR semantics.
func (p *Problem) MeasureOR(q search.Query) eval.PRF {
	return p.measureBits(p.retrieveORBits(q))
}

// Expanded is the outcome of one expansion run.
type Expanded struct {
	Query search.Query
	// PRF is the query's precision/recall/F against the cluster.
	PRF eval.PRF
	// Iterations counts refinement steps (algorithm-specific meaning).
	Iterations int
	// Evaluations counts how many candidate queries had their F-measure
	// (or benefit/cost table) computed — the work metric the efficiency
	// comparison of Section 5.3 turns on.
	Evaluations int
}

// Expander generates an expanded query for one Problem. ISKR, PEBC and the
// F-measure variant all implement it, as do the baselines adapted to
// clusters.
type Expander interface {
	// Expand solves Definition 2.2 for the problem.
	Expand(p *Problem) Expanded
	// Name identifies the method in reports ("ISKR", "PEBC", ...).
	Name() string
}
