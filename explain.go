package qec

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/search"
)

// Explain is the structured decision trail of one expansion request: what
// the retrieval pruned, how the k-means restarts fared, which candidate
// keywords each cluster's solver saw, which it picked, and what every
// rejected alternative scored. Produced by Engine.ExpandExplained.
//
// Collection is strictly read-along: the pipeline runs the same arithmetic
// in the same order whether or not it is being explained, so the Expansion
// returned next to an Explain is bit-identical to an unexplained run
// (pinned by TestExpandExplainedBitIdentical).
type Explain struct {
	// Query is the parsed user query.
	Query []string `json:"query"`
	// Method and Quality are the resolved method and quality labels.
	Method  string `json:"method"`
	Quality string `json:"quality"`
	// Results is the retrieved universe size the pipeline worked on.
	Results int `json:"results"`
	// Search is the retrieval leg: the top-K pruning counters.
	Search SearchExplain `json:"search"`
	// KMeans is the clustering leg (nil for backends that do not cluster).
	KMeans *KMeansExplain `json:"kmeans,omitempty"`
	// Clusters is the per-cluster solver leg, aligned with the returned
	// Expansion's Queries.
	Clusters []ClusterExplain `json:"clusters,omitempty"`
	// Notes lists legs the request's shape left empty (interleave rounds,
	// non-clustered backends).
	Notes []string `json:"notes,omitempty"`
}

// SearchExplain mirrors the search layer's pruning counters (see
// search.PruneStats) for the request's preamble retrieval.
type SearchExplain struct {
	// TopK is the retrieval depth (0 = full scan, no pruning possible).
	TopK int `json:"top_k"`
	// Pruned reports whether a block-max pruned path ran.
	Pruned bool `json:"pruned"`
	// BlocksSkipped counts driving-list blocks skipped wholesale;
	// CursorAdvances counts posting-cursor moves; DocsScored and
	// DocsSkipped split the surviving candidates.
	BlocksSkipped  int `json:"blocks_skipped"`
	CursorAdvances int `json:"cursor_advances"`
	DocsScored     int `json:"docs_scored"`
	DocsSkipped    int `json:"docs_skipped"`
	// Thresholds is the heap-threshold trajectory: the K-th best score
	// each time it changed, oldest first (capped).
	Thresholds []float64 `json:"thresholds,omitempty"`
}

// KMeansExplain is the clustering leg: the winning distortion and each
// restart's fate (abandonment happens only in serving mode).
type KMeansExplain struct {
	// K is the requested cluster count.
	K int `json:"k"`
	// Distortion is the winning restart's final distortion.
	Distortion float64 `json:"distortion"`
	// Iterations totals refinement rounds across all restarts.
	Iterations int `json:"iterations"`
	// Restarts details each restart in launch order.
	Restarts []RestartExplain `json:"restarts"`
}

// RestartExplain is one k-means restart's fate.
type RestartExplain struct {
	Seed       int64   `json:"seed"`
	Iterations int     `json:"iterations"`
	Distortion float64 `json:"distortion"`
	Abandoned  bool    `json:"abandoned"`
	Won        bool    `json:"won"`
}

// ClusterExplain is one cluster's solver decision trail.
type ClusterExplain struct {
	// Cluster is the cluster ordinal (matching ExpandedQuery.Cluster).
	Cluster int `json:"cluster"`
	// Size is the cluster's document count.
	Size int `json:"size"`
	// Label is the cluster's picked expanded query — its human-readable
	// identity.
	Label []string `json:"label"`
	// F is the picked query's F-measure against the cluster.
	F float64 `json:"f"`
	// Pool is the initial candidate table: benefit, cost, value and
	// F-if-added for every pool keyword.
	Pool []KeywordExplain `json:"pool,omitempty"`
	// Picked are the keywords the solver added (in application order for
	// ISKR); Rejected is the final candidate table for keywords that did
	// not make the query, with what each would have scored.
	Picked   []KeywordExplain `json:"picked,omitempty"`
	Rejected []KeywordExplain `json:"rejected,omitempty"`
	// Steps are ISKR's applied moves in order.
	Steps []StepExplain `json:"steps,omitempty"`
	// Samples are PEBC's partial-elimination probes in generation order.
	Samples []SampleExplain `json:"samples,omitempty"`
}

// KeywordExplain is one candidate keyword's scoring line.
type KeywordExplain struct {
	Keyword string  `json:"keyword"`
	Benefit float64 `json:"benefit"`
	Cost    float64 `json:"cost"`
	// Value is benefit/cost under the paper's conventions; when the true
	// ratio is +Inf (benefit at zero cost) Value is 0 and Infinite is set,
	// because JSON has no Inf literal.
	Value    float64 `json:"value"`
	Infinite bool    `json:"infinite,omitempty"`
	// F is the F-measure of the query with this keyword added (the pool
	// table adds to the seed query; the rejected table to the final one).
	F float64 `json:"f"`
}

// StepExplain is one applied ISKR move.
type StepExplain struct {
	// Op is "add" or "remove".
	Op      string `json:"op"`
	Keyword string `json:"keyword"`
	// Value is the move's benefit/cost ratio at selection time (0 with
	// Infinite=true when the cost side was zero).
	Value    float64 `json:"value"`
	Infinite bool    `json:"infinite,omitempty"`
	// F is the query's F-measure after the move.
	F float64 `json:"f"`
}

// SampleExplain is one PEBC partial-elimination probe.
type SampleExplain struct {
	// X is the target elimination percentage of U.
	X float64 `json:"x"`
	// Terms is the generated sample query.
	Terms []string `json:"terms"`
	// F is the sample's F-measure.
	F float64 `json:"f"`
}

// ExpandExplained runs the full expansion pipeline with the decision trail
// attached and returns both. It always runs the pipeline — the expansion
// cache is bypassed, because a cached result carries no trail; the pipeline
// is deterministic, so the returned Expansion is bit-identical to what
// Expand/ExpandTraced would return (and to what sits in the cache). tr may
// be nil and ctx is honored between k-means iterations and per-cluster solves,
// exactly as in ExpandTraced.
func (e *Engine) ExpandExplained(ctx context.Context, raw string, opts ExpandOptions, tr *obs.Trace) (*Expansion, *Explain, error) {
	ex := &Explain{}
	exp, err := e.expandFull(ctx, raw, opts, tr, ex)
	if err != nil {
		return nil, nil, err
	}
	return exp, ex, nil
}

// finiteValue splits a possibly-infinite benefit/cost ratio into the JSON
// shape (value, infinite) — JSON has no Inf literal.
func finiteValue(v float64) (float64, bool) {
	if v > maxFiniteValue {
		return 0, true
	}
	return v, false
}

// maxFiniteValue is the largest float64; anything above it is +Inf.
const maxFiniteValue = 0x1.fffffffffffffp1023

// keywordExplainTable converts a core keyword table, attaching the
// F-if-added measure of each keyword against base (post-hoc: the solve has
// already finished, so these extra evaluations cannot influence it).
func keywordExplainTable(p *core.Problem, base Query, rows []core.KeywordTrail) []KeywordExplain {
	out := make([]KeywordExplain, len(rows))
	for i, r := range rows {
		v, inf := finiteValue(r.Value)
		out[i] = KeywordExplain{
			Keyword: r.Keyword, Benefit: r.Benefit, Cost: r.Cost,
			Value: v, Infinite: inf,
			F: p.FMeasure(base.With(r.Keyword)),
		}
	}
	return out
}

// explainKMeans converts the clustering trail.
func explainKMeans(k int, cl *cluster.Clustering, trail *cluster.Trail) *KMeansExplain {
	ke := &KMeansExplain{
		K:          k,
		Distortion: cl.Distortion,
		Iterations: cl.TotalIterations,
		Restarts:   make([]RestartExplain, len(trail.Restarts)),
	}
	for i, r := range trail.Restarts {
		ke.Restarts[i] = RestartExplain{
			Seed: r.Seed, Iterations: r.Iterations, Distortion: r.Distortion,
			Abandoned: r.Abandoned, Won: r.Won,
		}
	}
	return ke
}

// explainSearch copies the pruning counters into the wire shape.
func explainSearch(topK int, ps *search.PruneStats) SearchExplain {
	return SearchExplain{
		TopK:           topK,
		Pruned:         ps.Pruned,
		BlocksSkipped:  ps.BlocksSkipped,
		CursorAdvances: ps.CursorAdvances,
		DocsScored:     ps.DocsScored,
		DocsSkipped:    ps.DocsSkipped,
		Thresholds:     ps.Thresholds,
	}
}
