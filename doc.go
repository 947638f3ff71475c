// Package qec is a from-scratch Go implementation of "Query Expansion Based
// on Clustered Results" (Liu, Natarajan, Chen; PVLDB 4(6), 2011).
//
// Given a keyword query over a corpus of text documents or structured
// (entity:attribute:value) products, the library:
//
//  1. retrieves the query's results with a built-in inverted-index search
//     engine (AND semantics, TF-IDF ranking),
//  2. clusters the results with k-means over TF vectors (cosine
//     similarity), and
//  3. generates one expanded query per cluster whose result set is as close
//     to the cluster as possible, maximizing the rank-weighted F-measure —
//     using the paper's ISKR or PEBC algorithms (or the slower greedy
//     delta-F walk).
//
// The expanded queries classify the possible interpretations of an
// ambiguous or exploratory query: searching "apple" yields one query per
// meaning (fruit, company, ...) rather than popular words biased toward the
// dominant interpretation.
//
// Quick start:
//
//	e := qec.NewEngine()
//	e.AddText("", "apple fruit orchard harvest ...")
//	e.AddText("", "apple iphone store launch ...")
//	...
//	e.Build()
//	exp, err := e.Expand("apple", qec.ExpandOptions{K: 2})
//	for _, q := range exp.Queries {
//	    fmt.Println(q.Terms, q.F)
//	}
//
// # Serving
//
// The library doubles as an online service. Constructing the engine with
// WithExpansionCache memoizes Expand results in a sharded LRU cache and
// coalesces concurrent identical calls into one computation, so a popular
// ambiguous query costs one k-means + ISKR run regardless of how many
// callers issue it at once:
//
//	e := qec.NewEngine(qec.WithExpansionCache(1024))
//	// ... load corpus, Build ...
//	exp, err := e.Expand("apple", qec.ExpandOptions{K: 3})   // computed
//	exp, err = e.Expand("apple", qec.ExpandOptions{K: 3})    // cache hit
//	fmt.Println(e.CacheStats().HitRate())
//
// Build is idempotent and safe for concurrent callers; see the concurrency
// contract on Engine. The qec-serve command (cmd/qec-serve) wraps the engine
// in a JSON HTTP API — POST /search, POST /expand, GET /healthz, GET /stats,
// GET /metrics — with per-request deadlines, a bounded expansion worker pool
// and graceful shutdown; see README.md for a quick start.
//
// # Expansion paradigms
//
// Every expansion method — the paper's clustered pipeline included — is an
// Expander backend selected per request, so all paradigms share the cache,
// the coalescing layer, per-stage tracing and per-method histograms:
//
//   - Clustered (Method ISKR, PEBC, DeltaF, ORExpansion): the paper's
//     pipeline — k-means over result TF vectors, one expansion problem per
//     cluster, solved by the selected core algorithm. Expansion.Clusters
//     carries the membership; Quality, Interleave and the engine seed apply.
//     One function, internal/core's ClusterExpand, runs this pipeline for
//     the engine, the experiment harness, qec-expand and the examples, so
//     the paper's figures come from the code the server runs.
//   - VectorNeighborhood ("vector"): the TF-IDF centroid of the top results
//     ranks neighborhood terms; top non-query terms become single-term
//     expansions measured against the whole neighborhood. The classic
//     pseudo-relevance-feedback baseline — no clustering, no seed.
//   - LexicalSynonym ("lexical"): query terms map through a WordNet-style
//     SynonymSource (WithSynonyms; built-in demo table by default),
//     candidates are analyzer-normalized and vocabulary-filtered, and the
//     corpus F-measure ranks the survivors.
//   - Orthogonal ("orthogonal"): greedy coverage picks mutually dissimilar
//     expansions — each pick is the keyword adding the most yet-uncovered
//     result weight, so suggestions tend to land one per sense without
//     running k-means.
//
// Methods parse from strings with ParseMethod (aliases included; one
// canonical error lists the valid names), enumerate with Methods, and
// select per request via ExpandOptions.Method or ExpandOptions.MethodName.
// Custom backends register with WithExpander and are chosen by MethodName.
//
// Each backend carries its own determinism leg, all pinned by goldens and
// cross-worker tests: the clustered family inherits the bit-identity
// contract below (fixed seed ⇒ identical output at any worker count);
// vector accumulates its centroid in ascending TermID order and ranks with
// a stable sort keyed (weight desc, TermID asc); lexical generates
// candidates in query-then-source order and ranks (F desc, term asc);
// orthogonal's greedy argmax scans keywords in lexicographic pool order
// with a strictly-greater tie-break. The method is a leg of the expansion
// cache key ("m=..."; custom backends get a distinct "x:"-prefixed leg), so
// no two methods can share a cache entry. See docs/EXPANDERS.md for the
// full contract and a walkthrough of writing a backend.
//
// # Performance and determinism
//
// The index is built on a corpus-global term dictionary
// (internal/termdict): every distinct term gets a dense int32 TermID
// assigned in lexicographic order, postings are flat []int32 doc slices
// with aligned []uint16 frequencies in a shared arena keyed by TermID,
// each document's term set is a sorted TermID slice in a second arena, and
// per-term IDF is precomputed at Build. Search resolves query strings to
// TermIDs once per evaluation and intersects raw posting slices with a
// galloping merge; candidate-pool scoring accumulates TF-IDF in a flat
// []float64 indexed by TermID (no string map anywhere on the hot path).
//
// Bounded retrievals (topK > 0) take a max-score/block-max pruned path:
// the index carries a per-term score upper bound and per-128-posting
// block maxima (recomputed from the postings on every Build and Load, so
// the snapshot format is unchanged), and Search drives a bounded top-K
// heap that skips whole blocks (AND) or demotes low-bound terms to
// verification-only (OR) once the heap's floor exceeds what they can
// contribute. The pruning is exact, not approximate: bounds are only
// ever compared strictly against the running threshold, every surviving
// document's score is accumulated in the same order and from the same
// float expressions as the full-scoring path, and ties break on
// ascending DocID exactly as the full sort does — so for every query,
// semantics and topK the pruned result slice is bit-identical to a
// prefix of the full ranking (pinned by a property test over random
// corpora with duplicated documents, and by Validate cross-checking
// every stored bound against the postings).
//
// The clustering hot path runs on sparse points against dense centroids.
// A document's vector shares the index's term arena slice directly (no
// per-run dictionary interning) with its norm cached at construction. Each
// k-means call renumbers the union of its points' TermIDs densely in
// ascending order, and a centroid is a dense []float64 over that local
// space, so each point·centroid distance is a gather over the point's IDs —
// cells the sparse merge-join would skip read an exact 0.0, and adding w·0
// to a non-negative partial sum never changes its bits, which is why the
// gather is bit-identical to the merge-join it replaced. A centroid update
// scans all local cells in order instead of sorting the touched ones.
// K-means restarts, the assignment step and the k-means++ D² scan fan out
// through internal/par, like every other parallel loop in the program: one
// process-wide budget of GOMAXPROCS−1 helper goroutines, acquired without
// blocking (the caller's own share needs no helper), so a nested fan
// (chunked assignment inside the restart fan) or a concurrent one (another
// request's) runs serially once the budget is spent instead of
// oversubscribing the CPU. Reductions stay serial and in index
// order. An exact k-means run is one fan over its restarts, each stepped to
// convergence on its own; only serving mode with two or more restarts
// advances them in deterministic lockstep rounds.
//
// # Clustering quality modes
//
// ExpandOptions.Quality is one ordered effort level, each level spending no
// more than the one before it, with a distinct determinism contract per
// mode:
//
//   - QualityExact (default): the full restart budget, every restart run
//     to convergence. Contract: bit identity — for a fixed seed the
//     clustering equals the historical implementation's output down to the
//     last float bit, regardless of worker count (pinned by the kmeans and
//     expansion golden files). Experiments and golden captures always use
//     this mode.
//   - QualityServing: at most two restarts, and a restart whose running
//     distortion (exact, summed after each assignment pass) already exceeds
//     the best completed restart's is abandoned. Abandonment is the
//     accuracy trade: distortion is not strictly monotone under the
//     cosine/mean update, so occasionally the abandoned restart would have
//     won (never yielding a better-than-exact result — the winner comes
//     from a subset of the identical restarts). Contract: determinism — a
//     fixed seed yields the identical clustering on every run and worker
//     count, because its restarts advance in lockstep rounds and
//     abandonment decisions are a pure function of iteration counts, never
//     of goroutine timing.
//   - QualityMinimal: one restart, run exactly as QualityExact runs its
//     first — QualityServing with Restarts 1, so nothing is abandoned.
//     Contract: determinism, as for serving. It has no wire name: the
//     degradation ladder applies it.
//
// Quality is part of the expansion cache key (see expandKey), so cached
// engines serve the levels side by side; the server maps the wire field
// "quality" ("exact"/"serving") onto it, with qec-serve -quality supplying
// the fleet default.
//
// The degradation ladder (internal/degrade, docs/DEGRADATION.md) composes
// these contracts rather than weakening them: a tier only raises a
// request's Quality to its floor (serving at T1, minimal at T2 and T3), so
// every tier runs one of the three deterministic levels above, cached under
// that level's key. The per-tier bit-identity leg is pinned at the cluster
// layer by the tier goldens in internal/cluster and at the wire by
// TestDegradationLadder's per-tier response goldens.
//
// The expansion core works in a problem-local dense ID space: universe
// documents map to 0..n-1 in ascending DocID order, pool keywords intern to
// int32 IDs in lexicographic order, and keyword→document incidence is
// packed into bitsets, so ISKR elimination and PEBC's incremental
// benefit/cost maintenance are word-wise And/AndNot/popcount operations.
// The dense-ID determinism contract has four legs. First, bitset iteration
// is ascending, and a dense ID ascends exactly when its DocID does, so
// visiting members of any set reproduces the sorted-DocID order of the
// original map-backed implementation. Second, every floating-point
// accumulation over a set is a flat left-fold in that ascending order —
// weighted sums never form per-word partial sums, because float addition is
// not associative and regrouping would perturb the low bits that argmax
// tie-breaking epsilons are calibrated against (unweighted sums are exact
// integers and may shortcut to popcounts). Third, argmax scans run in
// keyword-ID (= lexicographic pool) order with the historical tie-break
// rules, and every parallel fan-out (k-means restarts and scans,
// per-cluster problems and Expand calls, the experiment runner) goes through
// internal/par and collects results by index, so how many helpers the shared
// budget grants never shows in the output. Fourth, global TermIDs are
// assigned in lexicographic order, so iterating a term table in ascending
// TermID order is exactly the sorted-string iteration the historical code
// performed — which makes pool scoring, clustering dot products and
// baseline label sums bit-identical even though no strings are compared.
// Together these make expansion output bit-identical for fixed seeds
// across representations and worker counts — pinned by golden tests
// captured from the pre-refactor implementations and by map-vs-bitset
// property tests.
//
// # Telemetry
//
// The pipeline is instrumented end to end through internal/obs: lock-free
// counters, gauges and log-scale latency histograms (28 power-of-two
// buckets spanning 256ns to ~34s, atomic bins, mergeable snapshots), and a
// pooled per-request Trace recording wall time per pipeline stage
// (parse, search, problem, cluster, solve, assemble), the cache
// disposition, and k-means restart/iteration/abandonment counts.
// Engine.ExpandTraced is Expand plus a trace; Engine.Metrics exposes the
// engine-wide aggregates (per-quality, per-method and per-stage histograms,
// cumulative k-means counters). Instrumentation only reads clocks — traced
// output is bit-identical to untraced output (pinned by
// TestExpandTracedBitIdentical over the full options grid), the traced hot
// path allocates nothing extra, and its overhead is gated in CI within 5%
// ns/op and +0 allocs/op of the uninstrumented cold path.
//
// Engine.ExpandExplained goes beyond timings to the decision trail itself:
// the retrieval leg's pruning counters, each k-means restart's seed,
// iteration count and fate, and per-cluster solver detail — the candidate
// pool with benefit/cost/F per keyword, the picked keywords, the rejected
// alternatives' scores and the move sequence. The trail is strictly
// read-along: collectors observe decisions without participating in them,
// so the explained expansion is bit-identical to the plain one (pinned by
// TestExpandExplainedBitIdentical over the same options grid), and with
// explain off every collector pointer is nil — the off path is branch-only
// and gated in CI at +0 allocs/op and within 5% ns/op of the instrumented
// cold path (BenchmarkExplainOff).
//
// The server renders these as a Prometheus text exposition on GET /metrics
// (validated structurally in CI against a live scrape; includes build info
// and windowed 1m/5m QPS/error/abandon rates from a ring of periodic
// counter snapshots), quantile summaries and the same windowed rates on
// GET /stats, an X-Trace-Id header per request (inbound 16-hex IDs are
// adopted), JSON-lines access and slow-query logs, an inline per-stage
// breakdown on expand responses that set "debug": true, and the full
// explain trail on responses that set "explain": true. A lock-free flight
// recorder retains the most recent completed request records — sampled
// under load, but slow and failed requests always survive — served on
// GET /debug/requests (filterable, plus the in-flight registry) and
// GET /debug/requests/{trace_id}; SIGUSR1 dumps the in-flight registry to
// the access log. With a pprof listener enabled, expansion goroutines
// carry per-stage pprof labels so CPU profiles split by pipeline stage.
// docs/OBSERVABILITY.md is the operator's tour.
//
// # Snapshot versioning
//
// Engine.Save persists the index as a versioned binary snapshot: format
// v2 stores the term dictionary and the postings/doc-term arenas verbatim
// (IDF is recomputed at load — it is a pure function of the stored
// document frequencies). LoadEngine reads v2 directly, migrates legacy v1
// (map-format) snapshots in memory, and fails with a versioned error for
// anything else; every loaded index passes the full Index.Validate
// cross-check (dictionary sorted, offsets monotone, postings and doc
// arenas mutually consistent) before it is used. The decode path is fuzzed
// in CI.
//
// The internal packages implement the full substrate: analysis (tokenizer,
// stopwords, Porter stemmer), index, search, cluster, eval, core
// (ISKR/PEBC), expander (the flat vector/lexical/orthogonal backends),
// baseline (Data Clouds, TFICF cluster summarization, query-log
// suggestion), dataset (synthetic shopping and
// Wikipedia corpora), userstudy (simulated raters), experiment (the
// figure-regeneration harness), cache (sharded LRU + request coalescing),
// obs (counters, histograms, traces, Prometheus exposition) and server (the
// HTTP API).
package qec
