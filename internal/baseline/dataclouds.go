// Package baseline implements the comparison systems of Section 5.1:
// Data Clouds [15] (popular words over ranked results), CS (cluster
// summarization by TFICF [6]), and a query-log suggester standing in for
// Google's related-queries feature.
//
// Both corpus-backed baselines score terms in flat tables indexed by the
// index's global TermIDs — the per-call string maps the original
// implementation rebuilt are gone, and accumulation visits documents in
// input order with terms ascending by TermID (= lexicographic order), the
// exact order the map-backed code summed in, so all scores and labels are
// unchanged.
package baseline

import (
	"slices"

	"repro/internal/index"
	"repro/internal/search"
	"repro/internal/termdict"
)

// queryTermIDs resolves a query's terms through the index dictionary,
// dropping out-of-corpus terms, sorted ascending for merge-style skips — a
// thin wrapper over the shared termdict helper.
func queryTermIDs(idx *index.Index, q search.Query) []termdict.TermID {
	return termdict.ResolveSorted(idx.Dict(), q.Terms)
}

// DataClouds reproduces Koutrika et al. (EDBT 2009) as described by the
// paper: it "takes a set of ranked results, and returns the top-k important
// words in the results", importance being term frequency in the results the
// word appears in, inverse document frequency, and the ranking scores of
// those results. It does not cluster; each top word becomes one expanded
// query (user query + word), matching the Figures 8–9 listings.
type DataClouds struct {
	// TopK is the number of expanded queries to produce (paper cap: 5,
	// usually 3 to match the other approaches). 0 means 3.
	TopK int
}

// Name identifies the method in reports.
func (d *DataClouds) Name() string { return "DataClouds" }

// Suggest returns one expanded query per top word over the ranked results.
func (d *DataClouds) Suggest(idx *index.Index, results []search.Result, uq search.Query) []search.Query {
	topK := d.TopK
	if topK <= 0 {
		topK = 3
	}
	skip := termdict.SkipList{IDs: queryTermIDs(idx, uq)}
	scores := make([]float64, idx.NumTerms())
	var touched []termdict.TermID
	for _, res := range results {
		rank := res.Score
		if rank <= 0 {
			rank = 1
		}
		tids := idx.DocTermIDs(res.Doc)
		freqs := idx.DocTermFreqs(res.Doc)
		skip.Reset()
		for i, tid := range tids {
			if skip.Contains(tid) {
				continue // the user query's own terms never expand it
			}
			// Contributions are strictly positive (tf ≥ 1, IDF > 0, rank > 0),
			// so a zero score marks first touch.
			if scores[tid] == 0 {
				touched = append(touched, tid)
			}
			scores[tid] += float64(freqs[i]) * idx.IDFByID(tid) * rank
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
	if topK > len(ranked) {
		topK = len(ranked)
	}
	out := make([]search.Query, 0, topK)
	for i := 0; i < topK; i++ {
		out = append(out, uq.With(idx.TermByID(ranked[i])))
	}
	return out
}

// TopWords returns the n most important words without forming queries
// (the raw "data cloud").
func (d *DataClouds) TopWords(idx *index.Index, results []search.Result, uq search.Query, n int) []string {
	saved := d.TopK
	d.TopK = n
	queries := d.Suggest(idx, results, uq)
	d.TopK = saved
	out := make([]string, 0, len(queries))
	for _, q := range queries {
		// The added word is the term of q not in uq.
		for _, t := range q.Terms {
			if !uq.Contains(t) {
				out = append(out, t)
				break
			}
		}
	}
	return out
}
