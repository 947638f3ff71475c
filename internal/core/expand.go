package core

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/par"
	"repro/internal/search"
)

// ClusterExpansion is the expanded query generated for one cluster.
type ClusterExpansion struct {
	Cluster  int
	Expanded Expanded
}

// QECResult is the solution to one QEC instance (Definition 2.1): one
// expanded query per cluster plus the Eq. 1 score of the whole set.
type QECResult struct {
	Method     string
	Expansions []ClusterExpansion
	// Score is Eq. 1: the harmonic mean of the per-cluster F-measures.
	Score float64
}

// Queries returns just the expanded queries, in cluster order.
func (r *QECResult) Queries() []search.Query {
	out := make([]search.Query, len(r.Expansions))
	for i, e := range r.Expansions {
		out[i] = e.Expanded.Query
	}
	return out
}

// FMeasures returns the per-cluster F-measures, in cluster order.
func (r *QECResult) FMeasures() []float64 {
	out := make([]float64, len(r.Expansions))
	for i, e := range r.Expansions {
		out[i] = e.Expanded.PRF.F
	}
	return out
}

// TotalEvaluations sums the per-cluster evaluation counts.
func (r *QECResult) TotalEvaluations() int {
	n := 0
	for _, e := range r.Expansions {
		n += e.Expanded.Evaluations
	}
	return n
}

// BuildProblems constructs one Definition 2.2 problem per cluster from a
// clustering of the user query's results. Since maximizing Eq. 1 decomposes
// into maximizing each query's F-measure independently (Section 2), solving
// the problems independently solves QEC.
func BuildProblems(idx *index.Index, userQuery search.Query, cl *cluster.Clustering,
	weights eval.Weights, opts PoolOptions) []*Problem {

	return problemsFromSets(idx, userQuery, cl.Sets(), weights, opts)
}

// Solve runs the expander over every cluster and assembles the QEC result.
// The per-cluster Expand calls fan out through par.For (clusters are
// independent subproblems); results are collected by cluster index, so the
// output is bit-identical to a serial run for deterministic expanders.
func Solve(expander Expander, problems []*Problem) *QECResult {
	res, _ := SolveCtx(context.Background(), expander, problems)
	return res
}

// SolveCtx is Solve with cancellation: the context is checked before each
// per-cluster Expand, so a disconnected client stops burning CPU at cluster
// granularity instead of solving every remaining subproblem. On
// cancellation it returns (nil, ctx.Err()) — partial results are never
// surfaced, so a solve that completes is bit-identical whether or not a
// context was attached (the check only skips work, it reorders none).
func SolveCtx(ctx context.Context, expander Expander, problems []*Problem) (*QECResult, error) {
	res := &QECResult{
		Method:     expander.Name(),
		Expansions: make([]ClusterExpansion, len(problems)),
	}
	par.For(len(problems), func(i int) {
		if ctx.Err() != nil {
			return
		}
		res.Expansions[i] = ClusterExpansion{Cluster: i, Expanded: expander.Expand(problems[i])}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Score = eval.Score(res.FMeasures())
	return res, nil
}
