package expander

import (
	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/termdict"
)

// Orthogonal is the orthogonal-expansion backend, after Ackerman et al.:
// instead of ranking candidates independently (where the top K tend to
// describe the same dominant sense), it picks expansions greedily by
// marginal weighted coverage of the result universe, so each successive
// expansion targets results the previous picks do not cover — the
// suggestions are mutually dissimilar by construction. Candidates come from
// the expansion core's TF-IDF pool and coverage is word-wise bitset
// arithmetic over the dense universe, the same machinery the clustered
// pipeline's problems use. Stage accounting: pool + incidence construction
// runs under the "problem" span, greedy selection + measurement under
// "solve".
type Orthogonal struct{}

// Name implements Backend.
func (Orthogonal) Name() string { return "orthogonal" }

// Expand implements Backend. Determinism: the candidate pool is sorted
// ascending by TermID (= lexicographic), every coverage sum folds words in
// ascending dense-doc order through eval.AccumWord, and the greedy argmax
// updates on strictly-greater gain only — ties keep the lexicographically
// smallest keyword. No step depends on worker count; the whole selection is
// a serial fold.
func (Orthogonal) Expand(in *Input) *Output {
	tr := in.Trace

	tr.Begin(obs.StageProblem)
	ids, w := neighborhood(in) // ascending: dense ID order = DocID order
	n := len(ids)

	pool := core.ScorePool(in.Idx, in.Query, ids, core.DefaultPoolOptions())
	poolTids := termdict.ResolveSorted(in.Idx.Dict(), pool)

	// Per-keyword incidence over the dense universe by merge-join: pool
	// TermIDs and each document's TermIDs are both ascending.
	contain := make([]document.BitSet, len(pool))
	for ki := range contain {
		contain[ki] = document.NewBitSet(n)
	}
	for di, id := range ids {
		pi := 0
		for _, tid := range in.Idx.DocTermIDs(id) {
			for pi < len(poolTids) && poolTids[pi] < tid {
				pi++
			}
			if pi == len(poolTids) {
				break
			}
			if poolTids[pi] == tid {
				contain[pi].Add(di)
				pi++
			}
		}
	}

	tr.End(obs.StageProblem)

	tr.Begin(obs.StageSolve)
	// Greedy weighted max-coverage: each round picks the keyword whose
	// documents add the most uncovered weight, then marks them covered. A
	// keyword overlapping previous picks contributes only its *new*
	// documents, which is exactly the orthogonality pressure.
	covered := document.NewBitSet(n)
	suggestions := make([]Suggestion, 0, in.K)
	for len(suggestions) < in.K {
		best, bestGain := -1, 0.0
		for ki := range contain {
			gain := 0.0
			cov := covered.Words()
			for wi, word := range contain[ki].Words() {
				gain = eval.AccumWord(gain, wi, word&^cov[wi], w)
			}
			if gain > bestGain {
				best, bestGain = ki, gain
			}
		}
		if best < 0 {
			break // every candidate's documents are already covered
		}
		covered.Or(contain[best])
		q := in.Query.With(pool[best])
		suggestions = append(suggestions, Suggestion{
			Terms: q.Terms,
			PRF:   measure(in, q, ids, w),
		})
		contain[best] = document.NewBitSet(n) // never re-pick (zero gain forever)
	}
	tr.End(obs.StageSolve)
	return assemble(suggestions)
}

var _ Backend = Orthogonal{}
