// Package expander implements the engine's pluggable expansion backends —
// the alternative query-expansion paradigms served behind the public
// qec.Expander interface alongside the paper's clustered-results pipeline.
//
// Three backends live here:
//
//   - Vector: vector-neighborhood expansion. The top-ranked result documents
//     are embedded as TF-IDF vectors over the corpus-global TermID space and
//     averaged into a neighborhood centroid; the highest-weight centroid
//     terms outside the query become the expansions (the query-vector +
//     neighbor-mean recipe of embedding search engines, computed on the
//     index's own arenas instead of learned embeddings).
//   - Lexical: WordNet-style synonym expansion in the spirit of Pal et al.,
//     "Improving Query Expansion Using WordNet". Synonym candidates come
//     from a pluggable SynonymSource (in-memory table, file loader);
//     candidates surviving the corpus vocabulary are ranked by their
//     F-measure against the query's result neighborhood.
//   - Orthogonal: mutually dissimilar expansions à la Ackerman et al.,
//     "Orthogonal Query Expansion". Candidate keywords (the expansion
//     core's TF-IDF pool) are selected greedily by marginal weighted
//     coverage over bitsets of the result universe, so each successive
//     expansion targets results the previous ones do not cover.
//
// Every backend obeys the engine-wide backend contract (docs/EXPANDERS.md):
// output is a pure function of (corpus, query, options) — same inputs give
// bit-identical suggestions on every run and worker count. All candidate
// scans run in ascending TermID (= lexicographic) order with
// strictly-greater argmax updates, every floating-point accumulation folds
// in a deterministic order, and suggestion measurement uses eval.MeasureIDs,
// whose sums run in sorted document order.
package expander

import (
	"repro/internal/document"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/search"
)

// Input carries one expansion request into a backend: the shared
// parse + search preamble has already run (the engine owns those pipeline
// stages), so backends start from the ranked results.
type Input struct {
	// Idx is the built index of the corpus.
	Idx *index.Index
	// Eng evaluates candidate expanded queries against the corpus.
	Eng *search.Engine
	// Query is the parsed user query.
	Query search.Query
	// Results are the query's ranked hits, already cut to the requested
	// TopK. Never empty — the engine rejects no-result queries before
	// dispatch.
	Results []search.Result
	// K is the requested number of suggestions (already defaulted, > 0).
	K int
	// Unweighted disables rank-weighted measurement.
	Unweighted bool
	// Seed is the engine's deterministic seed. The backends in this package
	// are seed-free (no randomized steps); it is carried for custom
	// backends and parity with the clustered pipeline.
	Seed int64
	// Synonyms is the lexical backend's synonym source (nil falls back to
	// DefaultSynonyms). Other backends ignore it.
	Synonyms SynonymSource
	// Trace receives per-stage spans; nil is safe (obs methods are
	// nil-tolerant).
	Trace *obs.Trace
}

// Suggestion is one expanded query with its measure against the query's
// result neighborhood.
type Suggestion struct {
	// Terms are the suggestion's query keywords (the original query's terms
	// first, expansion terms appended).
	Terms []string
	// PRF measures the suggestion's full-corpus results against the
	// original result neighborhood: precision is the fraction of the
	// expanded query's results that stay inside the neighborhood (weighted
	// by the original ranking unless Unweighted), recall the fraction of
	// the neighborhood it retains.
	PRF eval.PRF
}

// Output is a backend's result: ranked suggestions plus the Eq. 1-style
// harmonic mean of their F-measures.
type Output struct {
	Suggestions []Suggestion
	Score       float64
}

// Backend is the internal backend contract mirrored by the public
// qec.Expander interface.
type Backend interface {
	// Name returns the backend's canonical method string — its telemetry
	// label and expansion-cache key leg.
	Name() string
	// Expand generates suggestions. Must be deterministic: a fixed Input
	// yields bit-identical Output on every run and worker count.
	Expand(in *Input) *Output
}

// neighborhood builds the measurement substrate shared by every backend in
// this package: the result universe as ascending DocIDs and its dense rank
// weights by position (nil when unweighted), resolved exactly as the
// clustered pipeline's Universe resolves them, so cross-backend PRF values
// are comparable.
func neighborhood(in *Input) ([]document.DocID, []float64) {
	ids := search.ResultIDs(in.Results)
	if in.Unweighted {
		return ids, nil
	}
	w := eval.Weights{}
	for _, r := range in.Results {
		w[r.Doc] = r.Score
	}
	return ids, w.Dense(ids)
}

// measure evaluates one expanded query by full-corpus AND retrieval against
// the result neighborhood. Eval returns ascending document IDs and
// eval.MeasureIDs folds in that sorted order, so the measure is
// bit-identical across runs.
func measure(in *Input, q search.Query, universe []document.DocID, w []float64) eval.PRF {
	return eval.MeasureIDs(in.Eng.Eval(q, search.And), universe, w)
}

// assemble ranks nothing — callers pass suggestions in final order — and
// computes the harmonic-mean score.
func assemble(suggestions []Suggestion) *Output {
	fs := make([]float64, len(suggestions))
	for i, s := range suggestions {
		fs[i] = s.PRF.F
	}
	return &Output{Suggestions: suggestions, Score: eval.Score(fs)}
}
