// Package experiment is the harness that regenerates every table and figure
// of the paper's evaluation (Section 5): the Eq. 1 score comparisons
// (Figure 5), the timing comparison (Figure 6), the scalability sweep
// (Figure 7), the simulated user study (Figures 1–4), the Table 1 query
// sets, and the Figures 8–9 expanded-query listings.
package experiment

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/document"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/search"
	"repro/internal/userstudy"
)

// Method names, in the order the paper's figures list them.
const (
	MethodISKR       = "ISKR"
	MethodPEBC       = "PEBC"
	MethodFMeasure   = "F-measure"
	MethodCS         = "CS"
	MethodDataClouds = "DataClouds"
	MethodGoogle     = "Google"
)

// Config fixes the experimental setup (Appendix C).
type Config struct {
	// Seed drives dataset generation, clustering restarts and PEBC.
	Seed int64
	// Scale multiplies corpus sizes (1 = paper-like result counts).
	Scale int
	// TopK bounds the number of results considered per query on the
	// Wikipedia data set ("all systems only consider the top 30 results").
	// 0 means 30.
	TopK int
	// MaxExpanded caps the number of expanded queries per approach
	// (paper: 5). 0 means 5.
	MaxExpanded int
	// PEBCSegments / PEBCIterations: the paper's experiments use 3 and 3.
	PEBCSegments   int
	PEBCIterations int
}

// DefaultConfig mirrors Appendix C.
func DefaultConfig() Config {
	return Config{Seed: 2011, Scale: 1, TopK: 30, MaxExpanded: 5,
		PEBCSegments: 3, PEBCIterations: 3}
}

func (c *Config) defaults() {
	if c.Scale < 1 {
		c.Scale = 1
	}
	if c.TopK <= 0 {
		c.TopK = 30
	}
	if c.MaxExpanded <= 0 {
		c.MaxExpanded = 5
	}
	if c.PEBCSegments <= 0 {
		c.PEBCSegments = 3
	}
	if c.PEBCIterations <= 0 {
		c.PEBCIterations = 3
	}
}

// Runner holds the two datasets and shared machinery for all experiments.
type Runner struct {
	Config   Config
	Shopping *dataset.Dataset
	Wiki     *dataset.Dataset
	pool     *userstudy.Pool

	// scaled memoizes the scaled-up Wikipedia corpora the Figure 7 sweep
	// uses, keyed by scale. Dataset generation is a pure function of
	// (seed, scale), and regenerating the scale-15 corpus dominated every
	// Figure7 call before the cache.
	scaledMu sync.Mutex
	scaled   map[int]*dataset.Dataset
}

// ScaledWiki returns the Wikipedia dataset at the given scale for the
// runner's seed, generating it on first use and reusing it afterwards (the
// dataset is read-only once built).
func (r *Runner) ScaledWiki(scale int) *dataset.Dataset {
	r.scaledMu.Lock()
	defer r.scaledMu.Unlock()
	if r.scaled == nil {
		r.scaled = map[int]*dataset.Dataset{}
	}
	if d, ok := r.scaled[scale]; ok {
		return d
	}
	d := dataset.Wikipedia(r.Config.Seed+1, scale)
	r.scaled[scale] = d
	return d
}

// NewRunner generates both corpora and prepares the rater pool.
func NewRunner(cfg Config) *Runner {
	cfg.defaults()
	return &Runner{
		Config:   cfg,
		Shopping: dataset.Shopping(cfg.Seed, cfg.Scale),
		Wiki:     dataset.Wikipedia(cfg.Seed+1, cfg.Scale),
		pool:     userstudy.NewPool(cfg.Seed + 2),
	}
}

// QueryRun is the prepared state for one test query: ranked results, the
// resolved universe (its documents and dense rank weights), the k-means
// clustering, and one Definition 2.2 problem per cluster.
type QueryRun struct {
	Dataset    *dataset.Dataset
	TQ         dataset.TestQuery
	Query      search.Query
	Results    []search.Result
	Universe   *core.Universe
	Clustering *cluster.Clustering
	Problems   []*core.Problem
	// ClusterTime is how long clustering took, the silhouette choice of k
	// included (reported in §5.3's prose).
	ClusterTime time.Duration

	// ubOnce/ub lazily cache the universe as a bitset over corpus DocIDs,
	// shared by every relatedness probe of the run.
	ubOnce sync.Once
	ub     document.BitSet
}

// UniverseBits returns the run's universe as a bitset over corpus DocIDs,
// built once per run. Used to make term-presence probes word-wise: instead
// of asking every universe document whether it has a term, walk the term's
// TermID postings and test membership against this set.
func (qr *QueryRun) UniverseBits() document.BitSet {
	qr.ubOnce.Do(func() {
		qr.ub = document.NewBitSet(qr.Dataset.Index.NumDocs())
		for _, id := range qr.Universe.Docs() {
			qr.ub.Add(int(id))
		}
	})
	return qr.ub
}

// Prepare runs the shared pipeline for one test query: search, rank, take
// top-K (Wikipedia only), then core.ClusterExpand without a solver — the
// engine's own pipeline — to cluster with k-means; once k is settled it
// builds the per-cluster problems (RunAll solves them).
//
// k: the user-specified granularity. We derive it from the number of
// distinct ground-truth categories/senses among the results, capped by
// MaxExpanded — standing in for "an upper bound specified by the user".
// When the results are label-homogeneous (e.g. QS3: all routers), the
// user would still want subgroups (the paper's QS3 clusters by product
// line), so we pick k by silhouette over 2..4, clustering the one
// universe's vectors again for k = 3 and 4.
func (r *Runner) Prepare(d *dataset.Dataset, tq dataset.TestQuery) *QueryRun {
	q := search.ParseQuery(d.Index, tq.Raw)
	topK := 0
	if d.Name == "wikipedia" {
		topK = r.Config.TopK
	}
	results := search.NewEngine(d.Index).Search(q, search.And, topK)

	distinct := map[string]struct{}{}
	for _, res := range results {
		distinct[d.Labels[res.Doc]] = struct{}{}
	}
	k := min(len(distinct), r.Config.MaxExpanded)
	bySilhouette := k < 2
	if bySilhouette {
		k = 2
	}
	kmeans := func(k int) cluster.Options {
		return cluster.Options{K: k, Seed: r.Config.Seed, PlusPlus: true, Restarts: 5}
	}

	var tr obs.Trace
	run, _ := core.ClusterExpand(context.Background(), core.ClusterInput{
		Index: d.Index, Query: q, Results: results, Cluster: kmeans(k), Trace: &tr,
	})
	cl := run.Clustering
	clusterTime := tr.Durations[obs.StageCluster]
	if bySilhouette {
		start := time.Now()
		vecs, docs := run.Universe.Vectors(), run.Universe.Docs()
		best := cluster.Silhouette(vecs, docs, cl)
		for kk := 3; kk <= 4; kk++ {
			cand := cluster.KMeansVecs(d.Index.NumTerms(), vecs, docs, kmeans(kk))
			if s := cluster.Silhouette(vecs, docs, cand); s > best {
				best, cl = s, cand
			}
		}
		clusterTime += time.Since(start)
	}
	return &QueryRun{
		Dataset: d, TQ: tq, Query: q, Results: results, Universe: run.Universe,
		Clustering: cl, Problems: run.Universe.Problems(cl.Sets()), ClusterTime: clusterTime,
	}
}

// expanders returns the cluster-based methods, configured per the paper.
func (r *Runner) expanders() []core.Expander {
	return []core.Expander{
		&core.ISKR{},
		&core.PEBC{Segments: r.Config.PEBCSegments,
			Iterations: r.Config.PEBCIterations, Seed: r.Config.Seed},
		&core.FMeasureVariant{},
	}
}

// MethodQueries holds the expanded queries one approach produced for one
// test query, with timing.
type MethodQueries struct {
	Method  string
	Queries []search.Query
	Elapsed time.Duration
	// Score is the Eq. 1 score; NaN-free: 0 when inapplicable (Data Clouds
	// and Google are not cluster-based, per §5.2.2).
	Score      float64
	Applicable bool // whether Score is meaningful for this method
}

// RunAll executes every approach on a prepared query and returns their
// expanded queries, Eq. 1 scores (where applicable) and timings.
func (r *Runner) RunAll(qr *QueryRun) []MethodQueries {
	var out []MethodQueries

	// Cluster-based: ISKR, PEBC, F-measure.
	for _, ex := range r.expanders() {
		start := time.Now()
		res := core.Solve(ex, qr.Problems)
		elapsed := time.Since(start)
		out = append(out, MethodQueries{
			Method: ex.Name(), Queries: res.Queries(), Elapsed: elapsed,
			Score: res.Score, Applicable: true,
		})
	}

	// CS: TFICF labels per cluster.
	cs := &baseline.CS{LabelSize: 3}
	start := time.Now()
	csQueries := cs.Suggest(qr.Dataset.Index, qr.Clustering, qr.Query)
	csScore := r.scoreAgainstClusters(qr, csQueries)
	out = append(out, MethodQueries{
		Method: MethodCS, Queries: csQueries, Elapsed: time.Since(start),
		Score: csScore, Applicable: true,
	})

	// Data Clouds: top words over the ranked results (no clusters).
	dc := &baseline.DataClouds{TopK: len(qr.Problems)}
	start = time.Now()
	dcQueries := dc.Suggest(qr.Dataset.Index, qr.Results, qr.Query)
	out = append(out, MethodQueries{
		Method: MethodDataClouds, Queries: dcQueries, Elapsed: time.Since(start),
	})

	// Google: query-log suggestions (no clusters, no corpus access).
	log := baseline.NewQueryLog(qr.Dataset.Log)
	start = time.Now()
	gQueries := log.Suggest(qr.TQ.Raw, len(qr.Problems))
	out = append(out, MethodQueries{
		Method: MethodGoogle, Queries: gQueries, Elapsed: time.Since(start),
	})

	return out
}

// logPopularity returns a suggestion's normalized popularity in the dataset's
// query log (0 when not found). The simulated raters treat popular log
// queries as inherently "related to the search" — the paper's raters judged
// Google's suggestions by real-world meaning, not corpus presence, and
// marked them down only to "related but there are better ones" when they
// were not results-oriented.
func (r *Runner) logPopularity(d *dataset.Dataset, q search.Query) float64 {
	maxCount := 0
	match := 0
	for _, e := range d.Log {
		if e.Count > maxCount {
			maxCount = e.Count
		}
		terms := search.NewQuery(strings.Fields(strings.ToLower(e.Query))...)
		if terms.Len() != q.Len() {
			continue
		}
		same := true
		for _, t := range q.Terms {
			if !terms.Contains(t) {
				same = false
				break
			}
		}
		if same && e.Count > match {
			match = e.Count
		}
	}
	if maxCount == 0 {
		return 0
	}
	return float64(match) / float64(maxCount)
}

// scoreAgainstClusters computes Eq. 1 for a set of queries that were
// generated one-per-cluster but whose terms may fall outside the candidate
// pools (CS labels): each query is evaluated with full retrieval restricted
// to the universe.
func (r *Runner) scoreAgainstClusters(qr *QueryRun, queries []search.Query) float64 {
	sets := qr.Clustering.Sets()
	n := len(queries)
	if n > len(sets) {
		n = len(sets)
	}
	fs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		fs = append(fs, qr.Universe.Measure(r.retrieve(qr, queries[i]), sets[i]).F)
	}
	return eval.Score(fs)
}

// retrieve evaluates q against the universe (full retrieval, so
// out-of-corpus terms yield empty sets — the Google behaviour the paper
// describes), as a bitset over the universe's dense IDs.
func (r *Runner) retrieve(qr *QueryRun, q search.Query) document.BitSet {
	return baseline.RetrieveWithin(qr.Dataset.Index, q, qr.Universe.Docs())
}

// resultSets retrieves each query against the universe.
func (r *Runner) resultSets(qr *QueryRun, queries []search.Query) []document.BitSet {
	out := make([]document.BitSet, len(queries))
	for i, q := range queries {
		out[i] = r.retrieve(qr, q)
	}
	return out
}

// relatedness measures how results-oriented one expanded query is: the
// fraction of its expansion terms occurring anywhere in the original
// results, halved when the conjunctive query retrieves nothing.
func (r *Runner) relatedness(qr *QueryRun, q search.Query) float64 {
	var expansion []string
	for _, t := range q.Terms {
		if !qr.Query.Contains(t) {
			expansion = append(expansion, t)
		}
	}
	if len(expansion) == 0 {
		return 0.5 // the unmodified query: related but unhelpful
	}
	// A term occurs in the original results iff its posting list intersects
	// the universe bitset: resolve the term to a TermID once and scan its
	// postings against the per-run set, instead of probing HasTerm for every
	// universe document.
	idx := qr.Dataset.Index
	ub := qr.UniverseBits()
	present := 0
	for _, t := range expansion {
		tid, ok := idx.LookupTerm(t)
		if !ok {
			continue
		}
		for _, d := range idx.PostingsDocs(tid) {
			if ub.Contains(int(d)) {
				present++
				break
			}
		}
	}
	rel := float64(present) / float64(len(expansion))
	if r.retrieve(qr, q).Empty() {
		rel *= 0.4
	}
	return rel
}

// helpfulness is the query's best F-measure against any cluster.
func (r *Runner) helpfulness(qr *QueryRun, q search.Query) float64 {
	retrieved := r.retrieve(qr, q)
	best := 0.0
	for _, set := range qr.Clustering.Sets() {
		if f := qr.Universe.Measure(retrieved, set).F; f > best {
			best = f
		}
	}
	return best
}

// AllQueryRuns prepares every test query of both datasets, in Table 1
// order. The per-query pipelines are independent and fan out through
// par.For; results are collected by index, so the returned slice is
// identical to a serial run's.
func (r *Runner) AllQueryRuns() []*QueryRun {
	type job struct {
		d  *dataset.Dataset
		tq dataset.TestQuery
	}
	var jobs []job
	for _, d := range []*dataset.Dataset{r.Shopping, r.Wiki} {
		for _, tq := range d.Queries {
			jobs = append(jobs, job{d, tq})
		}
	}
	out := make([]*QueryRun, len(jobs))
	par.For(len(jobs), func(i int) {
		out[i] = r.Prepare(jobs[i].d, jobs[i].tq)
	})
	return out
}

// MethodOrder is the canonical figure ordering of the six approaches.
func MethodOrder() []string {
	return []string{MethodISKR, MethodPEBC, MethodFMeasure, MethodCS,
		MethodDataClouds, MethodGoogle}
}

// sortByMethodOrder orders a method->value map's keys canonically.
func sortByMethodOrder(keys []string) {
	rank := map[string]int{}
	for i, m := range MethodOrder() {
		rank[m] = i
	}
	sort.Slice(keys, func(i, j int) bool { return rank[keys[i]] < rank[keys[j]] })
}
