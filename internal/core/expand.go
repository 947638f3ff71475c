package core

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/document"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/obs"
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

// ClusterInput is one run of the paper's pipeline (§2) over the ranked
// results of one user query.
type ClusterInput struct {
	Index *index.Index
	// Query is the parsed user query the results were retrieved for.
	Query search.Query
	// Results are the ranked results. Their scores are the ranking weights
	// of every problem unless Unweighted is set.
	Results    []search.Result
	Unweighted bool
	// Cluster configures k-means at the user's granularity (Cluster.K). Its
	// Ctx is replaced by ClusterExpand's ctx.
	Cluster cluster.Options
	// Solver solves each problem (ISKR, PEBC, ...). nil stops after
	// clustering: the run then carries the universe and the clustering but
	// no problems, and a caller that needs them builds them with
	// Universe.Problems(Clustering.Sets()).
	Solver Expander
	// Interleave, when positive, solves by alternating expansion and
	// re-assignment for at most this many rounds (see Interleave). The
	// rounds build their own problems, so ClusterRun.Problems stays nil.
	Interleave int
	// Trace, when non-nil, receives the problem, cluster and solve spans and
	// the k-means bookkeeping.
	Trace *obs.Trace
	// Explain attaches a decision Trail to every problem before the solve.
	Explain bool
}

// ClusterRun is what one ClusterExpand resolved: the shared universe
// snapshot, the k-means clustering, the clusters the queries were generated
// for, one Definition 2.2 problem per cluster and the solved QEC instance
// (Problems and Result are nil without a Solver).
type ClusterRun struct {
	Universe   *Universe
	Clustering *cluster.Clustering
	// Clusters are the clusters Result's queries were measured against, one
	// per expansion, as ascending DocIDs: Clustering.Clusters, or with
	// Interleave the best round's re-assigned clusters.
	Clusters [][]document.DocID
	Problems []*Problem
	Result   *QECResult
}

// ClusterExpand runs the paper's pipeline over one ranked result set: it
// clusters the results, builds one Definition 2.2 problem per cluster, and
// solves each with the Solver, scoring the set by Eq. 1. Since maximizing
// Eq. 1 decomposes into maximizing each query's F-measure independently
// (Section 2), solving the problems independently solves QEC. One resolved
// Universe serves the whole run: clustering reads its document vectors and
// every problem shares its candidate pool and keyword incidence.
//
// ctx cancels the k-means rounds, the per-cluster solves and the interleave
// rounds; a cancelled run returns ctx.Err() and never a partial result. The
// spans only read the clock, so traced and untraced runs are bit-identical,
// as are runs with and without Explain (see Trail).
func ClusterExpand(ctx context.Context, in ClusterInput) (ClusterRun, error) {
	tr := in.Trace
	tr.Begin(obs.StageProblem)
	var weights eval.Weights
	if !in.Unweighted {
		weights = eval.Weights{}
		for _, r := range in.Results {
			weights[r.Doc] = r.Score
		}
	}
	u := NewUniverse(in.Index, in.Query, search.ResultIDs(in.Results), weights,
		DefaultPoolOptions())
	tr.End(obs.StageProblem)

	copts := in.Cluster
	copts.Ctx = ctx
	tr.Begin(obs.StageCluster)
	cl := cluster.KMeansVecs(in.Index.NumTerms(), u.Vectors(), u.Docs(), copts)
	tr.End(obs.StageCluster)
	tr.SetKMeans(cl.Restarts, cl.TotalIterations, cl.AbandonedRestarts)
	// A cancelled drive returned a partial clustering; discard it.
	if err := ctx.Err(); err != nil {
		return ClusterRun{}, err
	}
	run := ClusterRun{Universe: u, Clustering: cl, Clusters: cl.Clusters}
	if in.Solver == nil {
		return run, nil
	}

	if in.Interleave > 0 {
		// The interleaved rounds are accounted wholly to the solve stage.
		tr.Begin(obs.StageSolve)
		it := Interleave{Expander: in.Solver, MaxRounds: in.Interleave}
		ir, err := it.Run(ctx, u, cl)
		tr.End(obs.StageSolve)
		if err != nil {
			return ClusterRun{}, err
		}
		run.Clusters, run.Result = ir.Clusters, ir.Result
		return run, nil
	}

	// Problem construction continues the "problem" span started for the
	// universe; End accumulates across the two intervals.
	tr.Begin(obs.StageProblem)
	run.Problems = u.Problems(cl.Sets())
	tr.End(obs.StageProblem)
	if in.Explain {
		for _, p := range run.Problems {
			p.Trail = &Trail{}
		}
	}
	tr.Begin(obs.StageSolve)
	res, err := SolveCtx(ctx, in.Solver, run.Problems)
	tr.End(obs.StageSolve)
	if err != nil {
		return ClusterRun{}, err
	}
	run.Result = res
	return run, nil
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
