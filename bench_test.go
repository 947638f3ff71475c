package qec

// One benchmark per table and figure of the paper's evaluation (Section 5),
// plus ablation benches for the pipeline's design choices (PEBC keyword
// selection and budget, ISKR removal, rank weights, clustering). Quality
// metrics (Eq. 1 scores, user-study means) are attached to the benchmark
// output via b.ReportMetric, so `go test -bench=.` regenerates both the
// timing and the quality side of every figure.

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/search"
)

var (
	benchOnce   sync.Once
	benchRunner *experiment.Runner
	benchStudy  *experiment.Study
)

func sharedBench(b *testing.B) (*experiment.Runner, *experiment.Study) {
	b.Helper()
	benchOnce.Do(func() {
		benchRunner = experiment.NewRunner(experiment.DefaultConfig())
		benchStudy = benchRunner.RunStudy()
	})
	return benchRunner, benchStudy
}

// --- Table 1 ----------------------------------------------------------------

func BenchmarkTable1QuerySets(b *testing.B) {
	r, _ := sharedBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wiki, shop := r.Table1()
		if len(wiki) != 10 || len(shop) != 10 {
			b.Fatal("bad table 1")
		}
	}
}

// --- Figures 1-4: simulated user study --------------------------------------

func BenchmarkFigure1IndividualScores(b *testing.B) {
	_, s := sharedBench(b)
	b.ResetTimer()
	var rows []experiment.MethodSummary
	for i := 0; i < b.N; i++ {
		rows = s.Figure1And2()
	}
	for _, ms := range rows {
		b.ReportMetric(ms.Summary.MeanScore, "score_"+ms.Method)
	}
}

func BenchmarkFigure2IndividualOptions(b *testing.B) {
	_, s := sharedBench(b)
	b.ResetTimer()
	var rows []experiment.MethodSummary
	for i := 0; i < b.N; i++ {
		rows = s.Figure1And2()
	}
	for _, ms := range rows {
		b.ReportMetric(ms.Summary.PctA, "pctA_"+ms.Method)
	}
}

func BenchmarkFigure3CollectiveScores(b *testing.B) {
	_, s := sharedBench(b)
	b.ResetTimer()
	var rows []experiment.MethodSummary
	for i := 0; i < b.N; i++ {
		rows = s.Figure3And4()
	}
	for _, ms := range rows {
		b.ReportMetric(ms.Summary.MeanScore, "score_"+ms.Method)
	}
}

func BenchmarkFigure4CollectiveOptions(b *testing.B) {
	_, s := sharedBench(b)
	b.ResetTimer()
	var rows []experiment.MethodSummary
	for i := 0; i < b.N; i++ {
		rows = s.Figure3And4()
	}
	for _, ms := range rows {
		b.ReportMetric(ms.Summary.PctC, "pctC_"+ms.Method)
	}
}

// --- Figure 5: Eq. 1 scores (the expansion work itself is benchmarked) ------

func benchFigure5(b *testing.B, ds string) {
	r, s := sharedBench(b)
	// Prepared query runs for the dataset (outside the timer).
	var runs []*experiment.QueryRun
	d := r.Shopping
	if ds == "wikipedia" {
		d = r.Wiki
	}
	for _, tq := range d.Queries {
		runs = append(runs, r.Prepare(d, tq))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, qr := range runs {
			for _, p := range qr.Problems {
				(&core.ISKR{}).Expand(p)
				(&core.PEBC{Segments: 3, Iterations: 3, Seed: r.Config.Seed}).Expand(p)
			}
		}
	}
	b.StopTimer()
	var iskr, pebc float64
	for _, row := range s.Figure5(ds) {
		iskr += row.Scores[experiment.MethodISKR]
		pebc += row.Scores[experiment.MethodPEBC]
	}
	b.ReportMetric(iskr/10, "meanEq1_ISKR")
	b.ReportMetric(pebc/10, "meanEq1_PEBC")
}

func BenchmarkFigure5aShoppingScores(b *testing.B)  { benchFigure5(b, "shopping") }
func BenchmarkFigure5bWikipediaScores(b *testing.B) { benchFigure5(b, "wikipedia") }

// --- Figure 6: per-method expansion time ------------------------------------

func benchFigure6Method(b *testing.B, ds string, method string) {
	r, _ := sharedBench(b)
	d := r.Shopping
	if ds == "wikipedia" {
		d = r.Wiki
	}
	var runs []*experiment.QueryRun
	for _, tq := range d.Queries {
		runs = append(runs, r.Prepare(d, tq))
	}
	var ex core.Expander
	switch method {
	case "ISKR":
		ex = &core.ISKR{}
	case "PEBC":
		ex = &core.PEBC{Segments: 3, Iterations: 3, Seed: r.Config.Seed}
	case "F-measure":
		ex = &core.FMeasureVariant{}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, qr := range runs {
			core.Solve(ex, qr.Problems)
		}
	}
}

func BenchmarkFigure6aShoppingTimeISKR(b *testing.B) { benchFigure6Method(b, "shopping", "ISKR") }
func BenchmarkFigure6aShoppingTimePEBC(b *testing.B) { benchFigure6Method(b, "shopping", "PEBC") }
func BenchmarkFigure6aShoppingTimeFMeasure(b *testing.B) {
	benchFigure6Method(b, "shopping", "F-measure")
}
func BenchmarkFigure6bWikipediaTimeISKR(b *testing.B) { benchFigure6Method(b, "wikipedia", "ISKR") }
func BenchmarkFigure6bWikipediaTimePEBC(b *testing.B) { benchFigure6Method(b, "wikipedia", "PEBC") }
func BenchmarkFigure6bWikipediaTimeFMeasure(b *testing.B) {
	benchFigure6Method(b, "wikipedia", "F-measure")
}

// --- Figure 7: scalability ---------------------------------------------------

func BenchmarkFigure7Scalability(b *testing.B) {
	r, _ := sharedBench(b)
	b.ResetTimer()
	var rows []experiment.ScalabilityRow
	for i := 0; i < b.N; i++ {
		rows = r.Figure7([]int{100, 300, 500})
	}
	b.StopTimer()
	for _, row := range rows {
		b.ReportMetric(float64(row.ISKR.Milliseconds()), "iskr_ms_n"+itoa(row.NumResults))
		b.ReportMetric(float64(row.PEBC.Milliseconds()), "pebc_ms_n"+itoa(row.NumResults))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- Figures 8-9: listings ----------------------------------------------------

func BenchmarkFigure8Listing(b *testing.B) {
	_, s := sharedBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Listing()) != 120 {
			b.Fatal("bad listing")
		}
	}
}

// --- §5.3 clustering-time prose ------------------------------------------------

func benchClusteringTime(b *testing.B, ds *dataset.Dataset, raw string, topK int) {
	eng := search.NewEngine(ds.Index)
	q := search.ParseQuery(ds.Index, raw)
	ids := search.ResultIDs(eng.Search(q, search.And, topK))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vecs := cluster.VectorsFromDocs(ds.Index, ids)
		cluster.KMeansVecs(ds.Index.NumTerms(), vecs, ids, cluster.Options{K: 3, Seed: 1, PlusPlus: true})
	}
}

func BenchmarkClusteringTimeShopping(b *testing.B) {
	r, _ := sharedBench(b)
	benchClusteringTime(b, r.Shopping, "memory", 0)
}

func BenchmarkClusteringTimeWikipedia(b *testing.B) {
	r, _ := sharedBench(b)
	benchClusteringTime(b, r.Wiki, "columbia", 30)
}

// --- Ablations ------------------------------------------------------------------

// ablationProblems returns the prepared QW2 problems — a midsize messy
// instance shared by the ablation benches.
func ablationProblems(b *testing.B) []*core.Problem {
	r, _ := sharedBench(b)
	qr := r.Prepare(r.Wiki, dataset.TestQuery{ID: "QW2", Raw: "columbia"})
	return qr.Problems
}

func benchPEBCStrategy(b *testing.B, strategy core.SelectionStrategy) {
	problems := ablationProblems(b)
	ex := &core.PEBC{Strategy: strategy, Seed: 9}
	b.ResetTimer()
	var score float64
	for i := 0; i < b.N; i++ {
		res := core.Solve(ex, problems)
		score = res.Score
	}
	b.ReportMetric(score, "eq1")
}

func BenchmarkAblationPEBCSelectionSingleResult(b *testing.B) {
	benchPEBCStrategy(b, core.SelectSingleResult)
}
func BenchmarkAblationPEBCSelectionFixedOrder(b *testing.B) {
	benchPEBCStrategy(b, core.SelectFixedOrder)
}
func BenchmarkAblationPEBCSelectionSubset(b *testing.B) {
	benchPEBCStrategy(b, core.SelectSubset)
}

func BenchmarkAblationISKRNoRemoval(b *testing.B) {
	problems := ablationProblems(b)
	b.ResetTimer()
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = core.Solve(&core.ISKR{}, problems).Score
		without = core.Solve(&core.ISKR{DisableRemoval: true}, problems).Score
	}
	b.ReportMetric(with, "eq1_with_removal")
	b.ReportMetric(without, "eq1_no_removal")
}

func BenchmarkAblationWeighted(b *testing.B) {
	r, _ := sharedBench(b)
	qr := r.Prepare(r.Wiki, dataset.TestQuery{ID: "QW5", Raw: "eclipse"})
	// The unweighted arm: the same pipeline over the same results without
	// rank weights (clustering ignores the weights).
	unweighted, _ := core.ClusterExpand(context.Background(), core.ClusterInput{
		Index: r.Wiki.Index, Query: qr.Query, Results: qr.Results, Unweighted: true,
		Cluster: cluster.Options{K: qr.Clustering.K(), Seed: r.Config.Seed, PlusPlus: true, Restarts: 5},
	})
	if !reflect.DeepEqual(unweighted.Clustering.Clusters, qr.Clustering.Clusters) {
		b.Fatal("the unweighted arm clustered differently")
	}
	unweightedProblems := unweighted.Universe.Problems(unweighted.Clustering.Sets())
	b.ResetTimer()
	var w, uw float64
	for i := 0; i < b.N; i++ {
		w = core.Solve(&core.ISKR{}, qr.Problems).Score
		uw = core.Solve(&core.ISKR{}, unweightedProblems).Score
	}
	b.ReportMetric(w, "eq1_weighted")
	b.ReportMetric(uw, "eq1_unweighted")
}

// BenchmarkAblationClustering runs the paper's clustering, k-means(++) with
// 5 restarts, through the whole ISKR pipeline on "mouse" and reports its
// Eq. 1 score.
func BenchmarkAblationClustering(b *testing.B) {
	r, _ := sharedBench(b)
	q := search.ParseQuery(r.Wiki.Index, "mouse")
	results := search.NewEngine(r.Wiki.Index).Search(q, search.And, 30)
	b.ResetTimer()
	var km float64
	for i := 0; i < b.N; i++ {
		run, _ := core.ClusterExpand(context.Background(), core.ClusterInput{
			Index: r.Wiki.Index, Query: q, Results: results, Solver: &core.ISKR{},
			Cluster: cluster.Options{K: 3, Seed: 1, PlusPlus: true, Restarts: 5},
		})
		km = run.Result.Score
	}
	b.ReportMetric(km, "eq1_kmeans")
}

func BenchmarkAblationPEBCBudget(b *testing.B) {
	problems := ablationProblems(b)
	b.ResetTimer()
	var small, large float64
	for i := 0; i < b.N; i++ {
		small = core.Solve(&core.PEBC{Segments: 3, Iterations: 3, Seed: 9}, problems).Score
		large = core.Solve(&core.PEBC{Segments: 5, Iterations: 5, Seed: 9}, problems).Score
	}
	b.ReportMetric(small, "eq1_3x3")
	b.ReportMetric(large, "eq1_5x5")
}

// --- Extensions (OR semantics, interleaving) --------------------

func BenchmarkExtensionORISKR(b *testing.B) {
	problems := ablationProblems(b)
	b.ResetTimer()
	var score float64
	for i := 0; i < b.N; i++ {
		score = core.Solve(&core.ORISKR{}, problems).Score
	}
	b.ReportMetric(score, "eq1_or")
}

func BenchmarkExtensionInterleave(b *testing.B) {
	r, _ := sharedBench(b)
	qr := r.Prepare(r.Wiki, dataset.TestQuery{ID: "QW9", Raw: "mouse"})
	it := &core.Interleave{MaxRounds: 4}
	b.ResetTimer()
	var oneShot, interleaved float64
	for i := 0; i < b.N; i++ {
		oneShot = core.Solve(&core.ISKR{}, qr.Problems).Score
		res, err := it.Run(context.Background(), qr.Universe, qr.Clustering)
		if err != nil {
			b.Fatal(err)
		}
		interleaved = res.Result.Score
	}
	b.ReportMetric(oneShot, "eq1_oneshot")
	b.ReportMetric(interleaved, "eq1_interleaved")
}

// --- Public API end-to-end -----------------------------------------------------

func BenchmarkEngineExpandEndToEnd(b *testing.B) {
	e := NewEngine(WithSeed(3))
	d := dataset.Wikipedia(3, 1)
	for _, doc := range d.Corpus.Docs() {
		e.AddText(doc.Title, doc.Body)
	}
	e.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Expand("java", ExpandOptions{K: 3, TopK: 30}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Cold expansion by corpus size ----------------------------------------------

// benchColdExpansion runs the full uncached pipeline (search + k-means with
// restarts + ISKR) over a Wikipedia corpus scaled by the given factor, with
// no TopK cap so the clustered result set grows with the corpus (the
// Figure 7 scalability axis).
func benchColdExpansion(b *testing.B, scale int) {
	e := NewEngine(WithSeed(3))
	d := dataset.Wikipedia(3, scale)
	for _, doc := range d.Corpus.Docs() {
		e.AddText(doc.Title, doc.Body)
	}
	e.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Expand("java", ExpandOptions{K: 3, TopK: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColdExpansionScale1(b *testing.B) { benchColdExpansion(b, 1) }
func BenchmarkColdExpansionScale2(b *testing.B) { benchColdExpansion(b, 2) }
func BenchmarkColdExpansionScale4(b *testing.B) { benchColdExpansion(b, 4) }

// --- Exact top-K retrieval -------------------------------------------------------

var (
	deepOnce sync.Once
	deepData *dataset.Dataset
	deepEng  *search.Engine
)

// deepSearchBench is a heavily scaled Wikipedia corpus — posting lists span
// many score blocks, so the block-max pruning actually has blocks to skip.
func deepSearchBench(b *testing.B) (*search.Engine, *dataset.Dataset) {
	b.Helper()
	deepOnce.Do(func() {
		deepData = dataset.Wikipedia(3, 16)
		deepEng = search.NewEngine(deepData.Index)
	})
	return deepEng, deepData
}

// benchSearchTopK measures one (semantics, topK) cell of the pruned exact
// top-K path; topK 0 is the full-scoring reference the pruned cells are
// measured against (pre-pruning, every topK paid this).
func benchSearchTopK(b *testing.B, sem search.Semantics, topK int) {
	eng, d := deepSearchBench(b)
	q := search.ParseQuery(d.Index, "java software platform")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := eng.Search(q, sem, topK); len(res) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkSearchTopKDeepAnd10(b *testing.B)   { benchSearchTopK(b, search.And, 10) }
func BenchmarkSearchTopKDeepAnd100(b *testing.B)  { benchSearchTopK(b, search.And, 100) }
func BenchmarkSearchTopKDeepAndFull(b *testing.B) { benchSearchTopK(b, search.And, 0) }
func BenchmarkSearchTopKDeepOr10(b *testing.B)    { benchSearchTopK(b, search.Or, 10) }
func BenchmarkSearchTopKDeepOr100(b *testing.B)   { benchSearchTopK(b, search.Or, 100) }
func BenchmarkSearchTopKDeepOrFull(b *testing.B)  { benchSearchTopK(b, search.Or, 0) }

// BenchmarkSearchOrMerge measures the unscored OR union on its own: the
// k-way sorted posting merge that replaced the map-backed accumulator
// (Eval returns ascending IDs with one allocation).
func BenchmarkSearchOrMerge(b *testing.B) {
	eng, d := deepSearchBench(b)
	q := search.ParseQuery(d.Index, "java software platform")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ids := eng.Eval(q, search.Or); len(ids) == 0 {
			b.Fatal("empty union")
		}
	}
}

// --- Observability overhead -----------------------------------------------------

// BenchmarkColdExpansionInstrumented is BenchmarkColdExpansionScale1 with a
// caller-supplied trace attached — the fully-instrumented serving path,
// recording six stage spans, the cache disposition, k-means bookkeeping and
// the engine's latency histograms per op. The benchdiff gates pin it within
// 5% ns/op and zero extra allocs/op of the uninstrumented cold path.
func BenchmarkColdExpansionInstrumented(b *testing.B) {
	e := NewEngine(WithSeed(3))
	d := dataset.Wikipedia(3, 1)
	for _, doc := range d.Corpus.Docs() {
		e.AddText(doc.Title, doc.Body)
	}
	e.Build()
	tr := obs.GetTrace()
	defer obs.PutTrace(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Reset()
		if _, err := e.ExpandTraced(context.Background(), "java", ExpandOptions{K: 3, TopK: 0}, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExplainOff is BenchmarkColdExpansionInstrumented run through the
// post-explain pipeline with explain off — every stage now carries nil-guarded
// trail collectors (search.PruneStats, cluster trail, solver trail, the
// explain pointer on ExpandInput), and this benchmark pins their disabled
// cost. The benchdiff gates hold it within 5% ns/op and zero extra allocs/op
// of the instrumented cold path: asking for explainability must cost nothing
// until a request actually asks to be explained.
func BenchmarkExplainOff(b *testing.B) {
	e := NewEngine(WithSeed(3))
	d := dataset.Wikipedia(3, 1)
	for _, doc := range d.Corpus.Docs() {
		e.AddText(doc.Title, doc.Body)
	}
	e.Build()
	tr := obs.GetTrace()
	defer obs.PutTrace(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Reset()
		if _, err := e.ExpandTraced(context.Background(), "java", ExpandOptions{K: 3, TopK: 0}, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsOverhead isolates the telemetry layer's fixed per-request cost:
// a pooled trace cycle, six Begin/End stage spans, the cache mark, k-means
// bookkeeping and the full ExpansionMetrics record. The benchdiff alloc gate
// holds this at zero allocations per op.
func BenchmarkObsOverhead(b *testing.B) {
	var m ExpansionMetrics
	opts := ExpandOptions{K: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := obs.GetTrace()
		tr.MarkCache(obs.CacheComputed)
		for s := obs.Stage(0); s < obs.NumStages; s++ {
			tr.Begin(s)
			tr.End(s)
		}
		tr.SetKMeans(5, 16, 0)
		m.observe(opts, int(opts.Method), tr, time.Microsecond)
		obs.PutTrace(tr)
	}
}

// --- Index substrate: term dictionary, postings arena, pool scoring -------------

// BenchmarkTermDictLookup measures one string→TermID resolution against the
// Wikipedia corpus dictionary — the once-per-query cost search pays to leave
// string space.
func BenchmarkTermDictLookup(b *testing.B) {
	r, _ := sharedBench(b)
	dict := r.Wiki.Index.Dict()
	terms := dict.Terms()
	b.ResetTimer()
	var hits int
	for i := 0; i < b.N; i++ {
		if _, ok := dict.Lookup(terms[i%len(terms)]); ok {
			hits++
		}
	}
	if hits != b.N {
		b.Fatal("dictionary lost terms")
	}
}

// BenchmarkPostingsIter sweeps the entire postings arena (every term's raw
// []int32 doc slice and aligned freqs) once per op — the substrate cost
// under the AND merge and the relatedness probes.
func BenchmarkPostingsIter(b *testing.B) {
	r, _ := sharedBench(b)
	idx := r.Wiki.Index
	nt := idx.NumTerms()
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		for t := 0; t < nt; t++ {
			docs := idx.PostingsDocs(int32(t))
			freqs := idx.PostingsFreqs(int32(t))
			for j := range docs {
				total += int(docs[j]) + int(freqs[j])
			}
		}
	}
	if total == 0 {
		b.Fatal("empty postings")
	}
}

// BenchmarkPoolScoring measures candidate-pool selection (NewUniverse's
// scoring phase) on QW2 "columbia": a flat TF-IDF accumulation over global
// TermIDs. The allocs/op ceiling pinned by the benchdiff gate guards the
// "zero map allocations" property — reintroducing a string map here would
// blow the gate.
func BenchmarkPoolScoring(b *testing.B) {
	r, _ := sharedBench(b)
	d := r.Wiki
	eng := search.NewEngine(d.Index)
	q := search.ParseQuery(d.Index, "columbia")
	universe := search.ResultIDs(eng.Search(q, search.And, 30))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pool := core.ScorePool(d.Index, q, universe, core.DefaultPoolOptions()); len(pool) == 0 {
			b.Fatal("empty pool")
		}
	}
}

// --- Serving path: cold vs cached vs coalesced Expand ---------------------------

// servingEngine is the Wikipedia corpus behind the serving benches.
func servingEngine(b *testing.B, opts ...Option) *Engine {
	b.Helper()
	e := NewEngine(append([]Option{WithSeed(3)}, opts...)...)
	d := dataset.Wikipedia(3, 1)
	for _, doc := range d.Corpus.Docs() {
		e.AddText(doc.Title, doc.Body)
	}
	e.Build()
	return e
}

var servingOpts = ExpandOptions{K: 3, TopK: 30}

// BenchmarkExpandServingCold is the no-cache baseline: every request pays the
// full search + k-means + ISKR pipeline.
func BenchmarkExpandServingCold(b *testing.B) {
	e := servingEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Expand("java", servingOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpandServingCached measures a repeat request to a warm cache —
// the steady state for popular ambiguous queries. The acceptance bar is a
// >= 10x speedup over BenchmarkExpandServingCold.
func BenchmarkExpandServingCached(b *testing.B) {
	e := servingEngine(b, WithExpansionCache(64))
	if _, err := e.Expand("java", servingOpts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Expand("java", servingOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpandServingCoalesced measures a 32-way thundering herd on a cold
// key: each op purges the cache and fires 32 concurrent identical requests,
// which the singleflight group collapses into one computation
// (computations/op stays at ~1, not 32).
func BenchmarkExpandServingCoalesced(b *testing.B) {
	e := servingEngine(b, WithExpansionCache(64))
	const fanout = 32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e.expCache.Purge()
		b.StartTimer()
		var wg sync.WaitGroup
		for j := 0; j < fanout; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := e.Expand("java", servingOpts); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	b.ReportMetric(float64(e.computations.Load())/float64(b.N), "computations/op")
	b.ReportMetric(fanout, "requests/op")
}
