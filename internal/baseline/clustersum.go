package baseline

import (
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/document"
	"repro/internal/index"
	"repro/internal/search"
	"repro/internal/termdict"
)

// CS reproduces the cluster-summarization comparison system: it labels each
// cluster with its top TFICF words (term frequency × inverse cluster
// frequency, per Carmel et al., SIGIR 2009) and uses "user query + label" as
// the expanded query for the cluster. The paper's critique — CS picks words
// with high occurrence in few results and ignores keyword interaction, so
// its queries often have low recall — emerges from this construction.
type CS struct {
	// LabelSize is the number of label words per cluster (the paper's
	// examples show 3). 0 means 3.
	LabelSize int
}

// Name identifies the method in reports.
func (c *CS) Name() string { return "CS" }

// clusterFrequencies counts, per TermID, the number of clusters whose
// documents contain the term — the "cluster frequency" of TFICF. One flat
// pass over the clustering; per-cluster dedup is an epoch stamp, not a map.
func clusterFrequencies(idx *index.Index, cl *cluster.Clustering) []int32 {
	cf := make([]int32, idx.NumTerms())
	seen := make([]int32, idx.NumTerms())
	for ci, ids := range cl.Clusters {
		stamp := int32(ci + 1)
		for _, id := range ids {
			for _, tid := range idx.DocTermIDs(id) {
				if seen[tid] != stamp {
					seen[tid] = stamp
					cf[tid]++
				}
			}
		}
	}
	return cf
}

// Label returns the top TFICF words of cluster ci within the clustering.
func (c *CS) Label(idx *index.Index, cl *cluster.Clustering, ci int, uq search.Query) []string {
	return c.labelWithCF(idx, cl, ci, uq, clusterFrequencies(idx, cl), new(termdict.DenseScratch))
}

// labelWithCF is Label with the cluster frequencies precomputed and the TF
// scratch (the shared epoch-stamped termdict.DenseScratch) reused, so
// Suggest pays the all-clusters scan and the vocabulary-sized allocation
// once instead of once per cluster (the old per-Label recomputation was
// O(k²) document scans).
func (c *CS) labelWithCF(idx *index.Index, cl *cluster.Clustering, ci int,
	uq search.Query, cf []int32, s *termdict.DenseScratch) []string {

	n := c.LabelSize
	if n <= 0 {
		n = 3
	}
	k := float64(cl.K())
	// Term frequency within the target cluster, in a flat TermID table —
	// documents in ascending order, terms ascending within each document,
	// the same summation order as the old sorted-term map walk.
	s.Reset(idx.NumTerms())
	for _, id := range cl.Clusters[ci] {
		tids := idx.DocTermIDs(id)
		freqs := idx.DocTermFreqs(id)
		for i, tid := range tids {
			s.Add(tid, float64(freqs[i]))
		}
	}
	qt := queryTermIDs(idx, uq)
	ranked := make([]termdict.TermID, 0, len(s.Touched))
	for _, tid := range s.Touched {
		skip := false
		for _, q := range qt {
			if q == tid {
				skip = true
				break
			}
		}
		if !skip {
			// The TF cell is dead after ranking, so the TFICF score
			// overwrites it in place — no second vocabulary-sized buffer.
			s.Vals[tid] *= math.Log(1 + k/float64(cf[tid]))
			ranked = append(ranked, tid)
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if s.Vals[ranked[i]] != s.Vals[ranked[j]] {
			return s.Vals[ranked[i]] > s.Vals[ranked[j]]
		}
		return ranked[i] < ranked[j] // TermID order = lexicographic order
	})
	if n > len(ranked) {
		n = len(ranked)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = idx.TermByID(ranked[i])
	}
	return out
}

// Suggest returns one expanded query per cluster: the user query plus the
// cluster's TFICF label words. Cluster frequencies are computed once and the
// TF scratch reused across every cluster's label.
func (c *CS) Suggest(idx *index.Index, cl *cluster.Clustering, uq search.Query) []search.Query {
	cf := clusterFrequencies(idx, cl)
	scratch := new(termdict.DenseScratch)
	out := make([]search.Query, 0, cl.K())
	for ci := range cl.Clusters {
		q := uq
		for _, w := range c.labelWithCF(idx, cl, ci, uq, cf, scratch) {
			q = q.With(w)
		}
		out = append(out, q)
	}
	return out
}

// RetrieveWithin evaluates an arbitrary query against the index under AND
// semantics and restricts the result to the universe — used to score
// baseline queries (whose terms need not come from any candidate pool) with
// the Section 2 measures. universe lists the result documents in ascending
// DocID order (a core.Universe's Docs), and the result is a bitset over
// positions in it, the universe's dense IDs. Universes are small (top-K
// result sets), so the membership test runs per universe document against
// the doc's sorted TermID set; query strings resolve through the dictionary
// once per call.
func RetrieveWithin(idx *index.Index, q search.Query, universe []document.DocID) document.BitSet {
	out := document.NewBitSet(len(universe))
	tids := make([]termdict.TermID, len(q.Terms))
	for i, t := range q.Terms {
		tid, ok := idx.LookupTerm(t)
		if !ok {
			return out // out-of-corpus term: AND matches nothing
		}
		tids[i] = tid
	}
	for i, id := range universe {
		all := true
		for _, tid := range tids {
			if !idx.HasTermID(id, tid) {
				all = false
				break
			}
		}
		if all {
			out.Add(i)
		}
	}
	return out
}
