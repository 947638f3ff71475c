package qec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/search"
)

// Re-exported data types. External users cannot import the internal
// packages directly; these aliases are the public names.
type (
	// Document is one searchable unit (text or structured).
	Document = document.Document
	// Triplet is a structured (entity:attribute:value) feature.
	Triplet = document.Triplet
	// DocID identifies a document within an engine.
	DocID = document.DocID
	// Result is one ranked search hit.
	Result = search.Result
	// Query is a keyword query (a set of normalized terms).
	Query = search.Query
)

// Sentinel errors returned by Expand, for errors.Is classification (the HTTP
// layer maps them to 400 and 404).
var (
	// ErrEmptyQuery means the query analyzed to zero terms.
	ErrEmptyQuery = errors.New("qec: empty query")
	// ErrNoResults means the query matched no documents.
	ErrNoResults = errors.New("qec: no results")
	// ErrUnknownMethod means a method name matched no built-in method (and,
	// for ExpandOptions.MethodName, no registered custom backend).
	ErrUnknownMethod = errors.New("qec: unknown method")
)

// Quality is the expansion pipeline's one ordered clustering effort level,
// from QualityExact (most effort) to QualityMinimal (least) — an alias of the
// internal cluster.Quality so it threads through ExpandOptions into
// ClusterOptions unconverted.
type Quality = cluster.Quality

const (
	// QualityExact (the default) runs clustering with the full restart
	// budget, every restart to convergence: output is bit-identical to the
	// historical implementation for a fixed seed.
	QualityExact = cluster.QualityExact
	// QualityServing trades a deterministic accuracy delta for latency:
	// at most two k-means restarts, with early abandonment. Runs remain
	// deterministic for a fixed seed, but results are not comparable to
	// QualityExact's.
	QualityServing = cluster.QualityServing
	// QualityMinimal runs one k-means restart. The degradation
	// ladder applies it at T2 and T3; ParseQuality has no name for it.
	QualityMinimal = cluster.QualityMinimal
)

// ParseQuality maps a quality-mode name ("exact", "serving"; "" means exact)
// back to a Quality. Matching is case-insensitive; ok is false for unknown
// names.
func ParseQuality(s string) (Quality, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "exact":
		return QualityExact, true
	case "serving":
		return QualityServing, true
	default:
		return QualityExact, false
	}
}

// Method selects the expansion algorithm.
type Method int

const (
	// ISKR is iterative single-keyword refinement (paper Section 3) — the
	// default; best quality in the paper's experiments.
	ISKR Method = iota
	// PEBC is partial elimination based convergence (Section 4) — faster
	// on large result sets, slightly lower quality.
	PEBC
	// DeltaF is the greedy delta-F walk: the ISKR variant whose keyword
	// values are the F-measure changes themselves, accepting only
	// F-improving steps (the paper's "F-measure" comparison method). It is
	// slower than ISKR and, being greedy, not guaranteed optimal.
	DeltaF
	// ORExpansion generates expanded queries under OR semantics (the
	// paper's appendix problem): keywords whose union of results covers the
	// cluster. The returned queries stand alone (they do not include the
	// original query's terms).
	ORExpansion
	// VectorNeighborhood expands toward the TF-IDF centroid of the top
	// results' term vectors: the centroid's heaviest non-query terms become
	// the suggestions (the embedding-search neighborhood recipe, computed on
	// the index's own arenas).
	VectorNeighborhood
	// LexicalSynonym expands through a WordNet-style synonym source: the
	// query terms' synonyms that exist in the corpus vocabulary, ranked by
	// F-measure against the result neighborhood (after Pal et al.).
	LexicalSynonym
	// Orthogonal picks mutually dissimilar expansions by greedy weighted
	// coverage of the result set — each suggestion targets results the
	// previous ones miss (after Ackerman et al.).
	Orthogonal
)

// ParseMethod maps a method name — a canonical wire string from Methods()
// or one of its aliases, case-insensitively; "" means the default (ISKR) —
// back to a Method. Unknown names return one canonical error wrapping
// ErrUnknownMethod and enumerating every valid method.
func ParseMethod(s string) (Method, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	if name == "" {
		return ISKR, nil
	}
	for _, mi := range methodRegistry {
		if name == mi.Name {
			return mi.Method, nil
		}
		for _, alias := range mi.Aliases {
			if name == alias {
				return mi.Method, nil
			}
		}
	}
	return ISKR, fmt.Errorf("%w %q (valid: %s)", ErrUnknownMethod, s, strings.Join(MethodNames(), ", "))
}

// String names the method.
func (m Method) String() string {
	switch m {
	case PEBC:
		return "PEBC"
	case DeltaF:
		return "DeltaF"
	case ORExpansion:
		return "OR-ISKR"
	case VectorNeighborhood:
		return "Vector"
	case LexicalSynonym:
		return "Lexical"
	case Orthogonal:
		return "Orthogonal"
	default:
		return "ISKR"
	}
}

// Engine is the top-level façade: a corpus, its index, and the expansion
// pipeline.
//
// Concurrency contract: mutation (AddText, AddProduct) must not overlap with
// any other Engine call — load the corpus first, from one goroutine. Once the
// corpus is loaded, Build, Search, Expand, Save and CacheStats are all safe
// for concurrent use from any number of goroutines; Build is idempotent (a
// sync.Once guards indexing), so concurrent callers race-freely share the one
// index build. AddText/AddProduct re-arm Build and invalidate the expansion
// cache, returning the engine to the mutation phase.
//
// Ownership: an engine made by NewEngineFromIndex or LoadEngine owns the
// index's corpus. AddText/AddProduct append to that corpus and re-arm Build
// over it, so the caller must not use the adopted index (or its corpus)
// afterwards.
type Engine struct {
	corpus   *document.Corpus
	analyzer *analysis.Analyzer
	idx      *index.Index
	eng      *search.Engine
	seed     int64

	// buildOnce makes Build idempotent and safe for concurrent callers. It
	// is swapped for a fresh Once when the corpus mutates.
	buildOnce *sync.Once

	// expCache, when non-nil, memoizes Expand results keyed by the
	// normalized query plus all result-affecting options; flight coalesces
	// concurrent identical computations so N callers compute once.
	cacheCap     int
	expCache     *cache.Cache[string, *Expansion]
	flight       cache.Group[string, *Expansion]
	computations atomic.Int64

	// metrics is the engine's pipeline telemetry (see telemetry.go). Plain
	// embedded state — histograms and counters are lock-free, recording is
	// allocation-free, and nothing here feeds back into the pipeline.
	metrics ExpansionMetrics

	// synonyms feeds the lexical backend (nil = built-in demo table);
	// custom holds WithExpander-registered backends by lowercased name.
	// Both are configured at construction only — never mutated afterwards —
	// so concurrent Expand calls read them without synchronization.
	synonyms SynonymSource
	custom   map[string]Expander
}

// Option configures an Engine.
type Option func(*Engine)

// WithStemming switches to the full prose pipeline (lowercase, stopwords,
// Porter stemmer). The default pipeline skips stemming so structured feature
// values round-trip exactly.
func WithStemming() Option {
	return func(e *Engine) { e.analyzer = analysis.Standard() }
}

// WithSeed fixes the random seed used by clustering and PEBC (default 1).
func WithSeed(seed int64) Option {
	return func(e *Engine) { e.seed = seed }
}

// WithExpansionCache enables a sharded LRU cache of up to capacity Expand
// results, plus request coalescing: concurrent Expand calls for the same
// query and options compute once and share the result. Cached *Expansion
// values are shared between callers and must be treated as immutable.
// capacity <= 0 disables caching (the default).
func WithExpansionCache(capacity int) Option {
	return func(e *Engine) { e.cacheCap = capacity }
}

// NewEngine returns an empty engine.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		corpus:    document.NewCorpus(),
		analyzer:  analysis.Simple(),
		seed:      1,
		buildOnce: new(sync.Once),
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.cacheCap > 0 {
		e.expCache = cache.New[string, *Expansion](e.cacheCap, cache.StringHash)
	}
	return e
}

// resetBuild returns the engine to the mutation phase: the index is dropped,
// Build is re-armed, and any cached expansions (now stale) are purged. An
// engine that was never built (or was reset since) has nothing to reset:
// the cache only fills after Build, so corpus set-up pays no purge per
// document. Must not race with other Engine calls — see the concurrency
// contract on Engine.
func (e *Engine) resetBuild() {
	if e.idx == nil {
		return
	}
	e.idx = nil
	e.eng = nil
	e.buildOnce = new(sync.Once)
	if e.expCache != nil {
		e.expCache.Purge()
	}
}

// AddText adds a prose document and returns its ID. Must be called before
// Build.
func (e *Engine) AddText(title, body string) DocID {
	e.resetBuild()
	return e.corpus.AddText(title, body)
}

// AddProduct adds a structured document with feature triplets and returns
// its ID. Must be called before Build.
func (e *Engine) AddProduct(title string, triplets []Triplet) DocID {
	e.resetBuild()
	return e.corpus.AddStructured(title, triplets)
}

// Len returns the number of documents.
func (e *Engine) Len() int { return e.corpus.Len() }

// Get returns a document by ID (nil when out of range).
func (e *Engine) Get(id DocID) *Document { return e.corpus.Get(id) }

// Build indexes the corpus. It is called implicitly by Search and Expand
// when needed; call it explicitly to control when the cost is paid. Build is
// idempotent and safe for concurrent callers: exactly one caller indexes,
// the rest wait for it, and every caller observes the finished index.
func (e *Engine) Build() {
	e.buildOnce.Do(func() {
		e.idx = index.Build(e.corpus, e.analyzer)
		e.eng = search.NewEngine(e.idx)
	})
}

// Search runs a keyword query (AND semantics) and returns results ranked by
// TF-IDF. topK <= 0 returns all results.
func (e *Engine) Search(raw string, topK int) []Result {
	e.Build()
	return e.eng.Search(search.ParseQuery(e.idx, raw), search.And, topK)
}

// Save writes the engine's index and corpus to w (gob format), so large
// corpora need not be re-indexed on every start.
func (e *Engine) Save(w io.Writer) error {
	e.Build()
	return e.idx.Save(w)
}

// NewEngineFromIndex returns an engine over an already-built index, without
// indexing again: it adopts the index's corpus and analyzer, and Build is a
// no-op until the corpus changes. Options configure everything else; an
// analyzer they select is replaced by the index's. The engine takes
// ownership of the corpus (see Engine).
func NewEngineFromIndex(idx *index.Index, opts ...Option) *Engine {
	e := NewEngine(opts...)
	e.corpus = idx.Corpus()
	e.analyzer = idx.Analyzer()
	e.idx = idx
	e.eng = search.NewEngine(idx)
	// The index is the built state; burn the Once so a later Build does not
	// re-index over it.
	e.buildOnce.Do(func() {})
	return e
}

// LoadEngine restores an engine previously written by Save. Options must
// reproduce the original analyzer configuration (pass WithStemming if the
// saved engine used it).
func LoadEngine(r io.Reader, opts ...Option) (*Engine, error) {
	idx, err := index.Load(r, NewEngine(opts...).analyzer)
	if err != nil {
		return nil, err
	}
	return NewEngineFromIndex(idx, opts...), nil
}

// ExpandOptions configures Expand.
type ExpandOptions struct {
	// K is the maximum number of clusters / expanded queries (the
	// user-specified granularity of Section 1). 0 means 3.
	K int
	// TopK considers only the top-ranked results (the paper uses 30 for
	// large result sets). 0 means all results.
	TopK int
	// Method selects the algorithm (default ISKR).
	Method Method
	// MethodName, when non-empty, selects the backend by name instead of
	// Method: first the engine's WithExpander-registered custom backends,
	// then the built-in method names and aliases (see Methods). An unknown
	// name makes Expand fail with ErrUnknownMethod.
	MethodName string
	// Unweighted disables rank-weighted precision/recall.
	Unweighted bool
	// Interleave alternates expansion and cluster re-assignment (the
	// paper's future-work "interweaving" idea) for up to this many rounds;
	// 0 disables it.
	Interleave int
	// Quality selects the clustering effort level (default QualityExact).
	// QualityServing and QualityMinimal cut cold-expansion latency at a
	// deterministic accuracy delta — see the package documentation's
	// "clustering quality modes" section. An undefined level makes Expand
	// fail.
	Quality Quality
}

// ExpandedQuery is one expanded query with its quality against its cluster.
type ExpandedQuery struct {
	// Terms are the query keywords (the original query's terms first).
	Terms []string
	// Cluster is the ordinal of the cluster this query targets.
	Cluster int
	// Precision, Recall and F measure the query's results against the
	// cluster (rank-weighted unless Unweighted was set).
	Precision, Recall, F float64
}

// Expansion is the result of Expand: one query per cluster plus the overall
// Eq. 1 score.
type Expansion struct {
	// Original is the parsed user query.
	Original []string
	// Queries are the expanded queries, one per cluster.
	Queries []ExpandedQuery
	// Clusters holds the document IDs of each cluster.
	Clusters [][]DocID
	// Score is the harmonic mean of the queries' F-measures (Eq. 1).
	Score float64
}

// CacheStats is a snapshot of the expansion cache and coalescer counters.
// Without WithExpansionCache all fields are zero except Computations, which
// counts pipeline runs regardless of caching.
type CacheStats struct {
	// Hits, Misses and Evictions are the LRU cache counters.
	Hits, Misses, Evictions int64
	// Entries and Capacity are the cache's current and maximum sizes.
	Entries, Capacity int
	// Computations counts actual runs of the expansion pipeline.
	Computations int64
	// Coalesced counts Expand calls that shared another caller's in-flight
	// computation instead of running their own.
	Coalesced int64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CacheStats reports the expansion cache and coalescer counters. Safe for
// concurrent use.
func (e *Engine) CacheStats() CacheStats {
	st := CacheStats{Computations: e.computations.Load()}
	if e.expCache == nil {
		return st
	}
	cs := e.expCache.Stats()
	st.Hits, st.Misses, st.Evictions = cs.Hits, cs.Misses, cs.Evictions
	st.Entries, st.Capacity = cs.Entries, cs.Capacity
	st.Coalesced = e.flight.Coalesced()
	return st
}

// expandKey canonicalizes (raw, opts) into a cache key: the parsed query's
// term list — produced by search.ParseQuery itself, so cache identity can
// never drift from query identity — plus every result-affecting option.
// The method leg is the backend's canonical label (custom backends are
// "x:"-prefixed), so two backends can never share a cached entry.
func (e *Engine) expandKey(raw string, opts ExpandOptions) string {
	e.Build()
	b := make([]byte, 0, 64)
	for _, term := range search.ParseQuery(e.idx, raw).Terms {
		b = append(b, term...)
		b = append(b, ' ')
	}
	b = append(b, "|k="...)
	b = strconv.AppendInt(b, int64(opts.K), 10)
	b = append(b, "|top="...)
	b = strconv.AppendInt(b, int64(opts.TopK), 10)
	b = append(b, "|m="...)
	b = append(b, e.methodLeg(opts)...)
	b = append(b, "|uw="...)
	b = strconv.AppendBool(b, opts.Unweighted)
	b = append(b, "|il="...)
	b = strconv.AppendInt(b, int64(opts.Interleave), 10)
	b = append(b, "|q="...)
	b = strconv.AppendInt(b, int64(opts.Quality), 10)
	return string(b)
}

// Expand runs the full pipeline of the paper on a user query: search,
// cluster the results, and generate one expanded query per cluster. With
// WithExpansionCache enabled, repeated calls are served from the LRU cache
// and concurrent identical calls are coalesced into one computation; the
// returned *Expansion is then shared and must be treated as immutable.
// ExpandTraced (telemetry.go) is the same call with a per-request trace and
// a cancellation context.
func (e *Engine) Expand(raw string, opts ExpandOptions) (*Expansion, error) {
	return e.ExpandTraced(context.Background(), raw, opts, nil)
}

// ExpandCached answers raw/opts from the expansion cache without ever running
// the pipeline: a hit returns the shared (immutable) cached Expansion, a miss
// — or an engine built without WithExpansionCache — returns (nil, false).
// This is the degradation ladder's cache-only (T3) read path.
func (e *Engine) ExpandCached(raw string, opts ExpandOptions) (*Expansion, bool) {
	if e.expCache == nil {
		return nil, false
	}
	e.Build()
	return e.expCache.Get(e.expandKey(raw, opts))
}

// expand is the uncached pipeline: the shared parse + search preamble, then
// the request's backend (see backendFor). Each stage runs between a
// Begin/End span pair so traces and the per-stage histograms see where the
// time went; the spans only read the clock — no pipeline arithmetic depends
// on them, so instrumented output is bit-identical to uninstrumented
// (pinned by TestInstrumentationBitIdentity and the expansion goldens).
//
// ex is the optional EXPLAIN collector. ex == nil is the hot path — no
// collector state is touched, no extra allocations happen (pinned by
// BenchmarkExplainOff's benchdiff gate). With ex attached, the same code
// runs the same arithmetic and only records what it sees; the
// decision-trail legs are filled by the search layer (PruneStats), the
// clustering driver (cluster.Trail) and the solvers (core.Trail).
func (e *Engine) expand(ctx context.Context, raw string, opts ExpandOptions, tr *obs.Trace, ex *Explain) (*Expansion, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.computations.Add(1)
	e.Build()
	backend, slot, err := e.backendFor(opts)
	if err != nil {
		return nil, err
	}
	// Per-stage metrics want durations even for untraced calls: borrow a
	// pooled trace so the recording path is identical either way (and free
	// of per-request allocations at steady state).
	if tr == nil {
		tr = obs.GetTrace()
		defer obs.PutTrace(tr)
	}
	tr.MarkCache(obs.CacheComputed)
	start := time.Now()

	tr.Begin(obs.StageParse)
	q := search.ParseQuery(e.idx, raw)
	tr.End(obs.StageParse)
	if q.Len() == 0 {
		return nil, ErrEmptyQuery
	}

	// SearchPruned with a nil collector is exactly Search; with one, the
	// results are bit-identical and the pruning counters are recorded.
	var prune *search.PruneStats
	if ex != nil {
		prune = &search.PruneStats{}
	}
	tr.Begin(obs.StageSearch)
	results := e.eng.SearchPruned(q, search.And, opts.TopK, prune)
	tr.End(obs.StageSearch)
	if len(results) == 0 {
		return nil, fmt.Errorf("%w for %q", ErrNoResults, raw)
	}
	if ex != nil {
		ex.Query = q.Terms
		ex.Method = e.methodLeg(opts)
		ex.Quality = opts.Quality.String()
		ex.Results = len(results)
		ex.Search = explainSearch(opts.TopK, prune)
		if !prune.Pruned {
			ex.Notes = append(ex.Notes, "retrieval ran the full-scan path (no top-k bound); pruning counters are zero")
		}
	}

	out, err := backend.Expand(ExpandInput{
		Engine:  e,
		Query:   q,
		Results: results,
		Opts:    opts,
		Seed:    e.seed,
		ctx:     ctx,
		trace:   tr,
		explain: ex,
	})
	if err != nil {
		return nil, err
	}
	if ex != nil && ex.KMeans == nil && len(ex.Clusters) == 0 {
		ex.Notes = append(ex.Notes,
			"backend \""+backend.Name()+"\" does not expose a clustering/solver decision trail")
	}

	e.metrics.observe(opts, slot, tr, time.Since(start))
	return out, nil
}

// ClusteredPipeline returns the Definition 2.2 solver and the k-means
// options the clustered method m runs with, for at most k clusters under
// seed: the one Method → solver mapping, shared by the engine and
// qec-expand. The options are the exact-quality defaults (k-means++, 5
// restarts); the engine then applies the request's quality level.
// Non-clustered methods map to ISKR.
func ClusteredPipeline(m Method, k int, seed int64) (core.Expander, cluster.Options) {
	var solver core.Expander
	switch m {
	case PEBC:
		solver = &core.PEBC{Seed: seed}
	case DeltaF:
		solver = &core.FMeasureVariant{}
	case ORExpansion:
		solver = &core.ORISKR{}
	default:
		solver = &core.ISKR{}
	}
	return solver, cluster.Options{K: k, Seed: seed, PlusPlus: true, Restarts: 5}
}

// clusteredExpander runs the paper's pipeline — core.ClusterExpand: cluster
// the results, build one Definition 2.2 problem per cluster, solve with the
// selected core algorithm — behind the Expander interface. It only picks the
// solver and assembles the Expansion. One instance per clustered Method
// lives in builtinExpanders; the experiments and the CLIs run the same
// function, so the paper's figures come from the code the server runs
// (pinned by the expansion goldens and TestEngineMatchesExperimentRunner).
type clusteredExpander struct{ method Method }

func (c clusteredExpander) Name() string { return methodRegistry[c.method].Name }

func (c clusteredExpander) Expand(in ExpandInput) (*Expansion, error) {
	e, opts, tr := in.Engine, in.Opts, in.trace
	k := in.SuggestionCount()

	// The core algorithm follows c.method — the dispatch identity, which
	// backendFor resolved from Method or MethodName — never opts.Method,
	// which may disagree when MethodName is set.
	solver, copts := ClusteredPipeline(c.method, k, e.seed)
	copts.Quality = opts.Quality
	if in.explain != nil {
		copts.Trail = &cluster.Trail{}
	}
	run, err := core.ClusterExpand(in.Context(), core.ClusterInput{
		Index: e.idx, Query: in.Query, Results: in.Results, Unweighted: opts.Unweighted,
		Cluster: copts, Solver: solver, Interleave: opts.Interleave,
		Trace: tr, Explain: in.explain != nil,
	})
	if err != nil {
		return nil, err
	}
	cl, res := run.Clustering, run.Result

	tr.Begin(obs.StageAssemble)
	out := &Expansion{
		Original: in.Query.Terms,
		Clusters: run.Clusters,
		Score:    res.Score,
	}
	for i, ce := range res.Expansions {
		out.Queries = append(out.Queries, ExpandedQuery{
			Terms:     ce.Expanded.Query.Terms,
			Cluster:   i,
			Precision: ce.Expanded.PRF.Precision,
			Recall:    ce.Expanded.PRF.Recall,
			F:         ce.Expanded.PRF.F,
		})
	}
	tr.End(obs.StageAssemble)
	if in.explain != nil {
		in.explain.KMeans = explainKMeans(k, cl, copts.Trail)
		if opts.Interleave > 0 {
			in.explain.Notes = append(in.explain.Notes,
				"interleave rounds rebuild problems internally; per-cluster solver trails are not collected")
		}
		c.explainClusters(in.explain, out, res, run.Problems)
	}
	return out, nil
}

// explainClusters fills the per-cluster solver leg of an Explain from the
// solve's decision trails. It runs after the Expansion has been assembled,
// so the extra F-measure evaluations it performs (candidate-pool F-if-added
// lines) cannot influence the returned result.
func (c clusteredExpander) explainClusters(ex *Explain, out *Expansion,
	res *core.QECResult, problems []*core.Problem) {

	for i, ce := range res.Expansions {
		cx := ClusterExplain{
			Cluster: i,
			Label:   ce.Expanded.Query.Terms,
			F:       ce.Expanded.PRF.F,
		}
		if i < len(out.Clusters) {
			cx.Size = len(out.Clusters[i])
		}
		if problems != nil && i < len(problems) && problems[i].Trail != nil {
			p, trail := problems[i], problems[i].Trail
			cx.Pool = keywordExplainTable(p, p.UserQuery, trail.Pool)
			cx.Rejected = keywordExplainTable(p, ce.Expanded.Query, trail.Rejected)
			// Picked: the final query's terms beyond the seed query, each
			// with its initial candidate line from the pool table.
			for _, term := range ce.Expanded.Query.Terms {
				if p.UserQuery.Contains(term) {
					continue
				}
				picked := KeywordExplain{Keyword: term, F: ce.Expanded.PRF.F}
				for _, row := range cx.Pool {
					if row.Keyword == term {
						picked = row
						break
					}
				}
				cx.Picked = append(cx.Picked, picked)
			}
			for _, s := range trail.Steps {
				v, inf := finiteValue(s.Value)
				cx.Steps = append(cx.Steps, StepExplain{
					Op: s.Op, Keyword: s.Keyword, Value: v, Infinite: inf, F: s.F,
				})
			}
			for _, s := range trail.Samples {
				cx.Samples = append(cx.Samples, SampleExplain{X: s.X, Terms: s.Terms, F: s.F})
			}
		}
		ex.Clusters = append(ex.Clusters, cx)
	}
}
