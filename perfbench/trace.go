package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	qec "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/server"
)

// The traced run serves the engine in-process with server.New, wraps its
// http.Handler and its server.Engine with timers, and after every request
// replays the request's stages through the layers' public functions in the
// order clusteredExpander.Expand calls them. The replay must return the
// served answer, or the run fails: the per-layer times then describe the
// program that was served. It changes no program code.

// Replayed stages, in pipeline order.
const (
	stSearch = iota
	stUniverse
	stCluster
	stProblems
	stSolve
	stLookup
	numStages
)

var stageNames = [numStages]string{
	"search.search", "core.universe", "cluster.kmeans", "core.problems", "core.solve", "cache.lookup",
}

// setupReps is the number of in-process set-ups whose median the set-up
// layers report.
const setupReps = 3

// interval is one timed call.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// engineCall is one timed call into the served engine.
type engineCall struct {
	interval
	cache obs.CacheState
}

// tracedEngine is the served engine with its request calls timed. Every
// other method, including the optional ones the server looks for (Get,
// Build, Metrics), passes straight through.
type tracedEngine struct {
	*qec.Engine
	calls chan engineCall
}

func (t *tracedEngine) Search(raw string, topK int) []qec.Result {
	start := time.Now()
	res := t.Engine.Search(raw, topK)
	t.calls <- engineCall{interval: interval{start, time.Now()}}
	return res
}

func (t *tracedEngine) ExpandTraced(ctx context.Context, raw string, opts qec.ExpandOptions, tr *obs.Trace) (*qec.Expansion, error) {
	start := time.Now()
	exp, err := t.Engine.ExpandTraced(ctx, raw, opts, tr)
	t.calls <- engineCall{interval: interval{start, time.Now()}, cache: tr.Cache}
	return exp, err
}

// timedHandler times the server's handler.
type timedHandler struct {
	h    http.Handler
	done chan interval
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, r)
	t.done <- interval{start, time.Now()}
}

// span is one recorded span. Spans of one request share its req number;
// replayed stages run after the round trip and have replay set.
type span struct {
	Req     int     `json:"req"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Replay  bool    `json:"replay,omitempty"`
}

// record is one traced request.
type record struct {
	roundtrip, handler, engine time.Duration
	stages                     [numStages]time.Duration
	hit                        bool
	results, iterations        int
	restarts, abandoned, evals int
}

// replayer runs a request's stages through the layers' public functions.
type replayer struct {
	idx  *index.Index
	seng *search.Engine
	eng  *qec.Engine
	t0   time.Time
	// spans is filled as stages run; flushed by the caller.
	spans []span
}

func (r *replayer) timed(req int, rec *record, st int, fn func()) {
	start := time.Now()
	fn()
	d := time.Since(start)
	rec.stages[st] += d
	r.spans = append(r.spans, span{Req: req, Name: stageNames[st], Parent: "engine",
		StartUS: us(start.Sub(r.t0)), DurUS: us(d), Replay: true})
}

// replay runs def's stages and returns the answer they produce.
func (r *replayer) replay(req int, def *reqDef, rec *record) (answer, error) {
	if def.path == "/search" {
		var results []search.Result
		r.timed(req, rec, stSearch, func() {
			results = r.seng.Search(search.ParseQuery(r.idx, def.raw), search.And, def.topK)
		})
		rec.results = len(results)
		return searchAnswer(results), nil
	}
	if rec.hit {
		var exp *qec.Expansion
		var ok bool
		r.timed(req, rec, stLookup, func() { exp, ok = r.eng.ExpandCached(def.raw, def.opts) })
		if !ok {
			return answer{}, fmt.Errorf("served from the cache, but the cache has no entry")
		}
		return expandAnswer(exp), nil
	}
	return r.replayPipeline(req, def, rec)
}

// replayPipeline is the uncached expansion, stage by stage, as
// clusteredExpander.Expand runs it for the ISKR and PEBC methods.
func (r *replayer) replayPipeline(req int, def *reqDef, rec *record) (answer, error) {
	var (
		q       search.Query
		results []search.Result
		u       *core.Universe
		cl      *cluster.Clustering
		probs   []*core.Problem
		res     *core.QECResult
		err     error
	)
	r.timed(req, rec, stSearch, func() {
		q = search.ParseQuery(r.idx, def.raw)
		results = r.seng.SearchPruned(q, search.And, def.opts.TopK, nil)
	})
	rec.results = len(results)
	r.timed(req, rec, stUniverse, func() {
		weights := eval.Weights{}
		for _, res := range results {
			weights[res.Doc] = res.Score
		}
		u = core.NewUniverse(r.idx, q, search.ResultIDs(results), weights, core.DefaultPoolOptions())
	})
	k := def.opts.K
	if k == 0 {
		k = 3
	}
	r.timed(req, rec, stCluster, func() {
		cl = cluster.KMeansVecs(r.idx.NumTerms(), u.Vectors(), u.Docs(), cluster.Options{
			K: k, Seed: engineSeed, PlusPlus: true, Restarts: 5, Quality: qec.QualityExact,
		})
	})
	rec.iterations, rec.restarts, rec.abandoned = cl.TotalIterations, cl.Restarts, cl.AbandonedRestarts
	r.timed(req, rec, stProblems, func() { probs = u.Problems(cl.Sets()) })
	var x core.Expander = &core.ISKR{}
	if def.opts.Method == qec.PEBC {
		x = &core.PEBC{Seed: engineSeed}
	}
	r.timed(req, rec, stSolve, func() { res, err = core.SolveCtx(context.Background(), x, probs) })
	if err != nil {
		return answer{}, err
	}
	rec.evals = res.TotalEvaluations()
	exp := &qec.Expansion{Original: q.Terms, Clusters: cl.Clusters, Score: res.Score}
	for i, ce := range res.Expansions {
		exp.Queries = append(exp.Queries, qec.ExpandedQuery{
			Terms: ce.Expanded.Query.Terms, Cluster: i,
			Precision: ce.Expanded.PRF.Precision, Recall: ce.Expanded.PRF.Recall, F: ce.Expanded.PRF.F,
		})
	}
	return expandAnswer(exp), nil
}

// serverOptions are qec-serve's defaults.
func serverOptions() server.Options {
	return server.Options{
		RequestTimeout: 10 * time.Second,
		FlightCapacity: 256,
		Degrade:        true,
		DegradeMaxTier: 4,
	}
}

// serveLoopback serves h on a fresh loopback listener until the returned
// stop function is called; stop waits for the server to end.
func serveLoopback(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		// Serve returns ErrServerClosed once stop runs.
		_ = srv.Serve(ln)
		close(done)
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = srv.Close() // it only reports the listener's close error
		<-done
	}, nil
}

// tracedRun is the traced run. It reports every per-layer metric.
func tracedRun(w *workload, seed int64, seconds int, out string) (*result, error) {
	res := newResult()
	probeBefore := hostProbe()

	// Set-up layers. dataset.Wikipedia builds an index of its own, and the
	// engine then builds a second one of the same corpus.
	var (
		gens, builds []float64
		d            *dataset.Dataset
		eng          *qec.Engine
	)
	for i := 0; i < setupReps; i++ {
		d, eng = nil, nil
		runtime.GC()
		t0 := time.Now()
		d = w.corpus()
		gens = append(gens, ms(time.Since(t0)))
		eng = w.loadEngine(d)
		t1 := time.Now()
		eng.Build()
		builds = append(builds, ms(time.Since(t1)))
	}
	indexBuilds := 1
	if d.Index != nil {
		indexBuilds++
	}

	rng := rand.New(rand.NewSource(seed))
	defs, err := w.requests(rng, d, w.newEngine(d))
	if err != nil {
		return nil, err
	}
	n := requestCount(w, seconds) / 2
	seq := w.draw(rng, defs, 2*n)

	te := &tracedEngine{Engine: eng, calls: make(chan engineCall, 1)}
	th := &timedHandler{h: server.New(te, serverOptions()).Handler(), done: make(chan interval, 1)}
	plainBase, stopPlain, err := serveLoopback(server.New(eng, serverOptions()).Handler())
	if err != nil {
		return nil, err
	}
	defer stopPlain()
	tracedBase, stopTraced, err := serveLoopback(th)
	if err != nil {
		return nil, err
	}
	defer stopTraced()

	// Untraced: the warm-up, then the first half of the order, for the
	// tracing overhead.
	lp := newLoader(plainBase, defs, 1)
	defer lp.close()
	res.count("warm", lp.warm())
	untraced := lp.run(seq[:n], 1)
	res.count("untraced", untraced)

	// Traced: the second half, one request at a time.
	lt := newLoader(tracedBase, defs, 1)
	defer lt.close()
	copy(lt.canon, lp.canon)
	rp := &replayer{idx: d.Index, seng: search.NewEngine(d.Index), eng: eng, t0: time.Now()}
	recs := make([]record, 0, n)
	comps0 := eng.CacheStats().Computations
	var buf bytes.Buffer
	traced := phase{sent: n}
	tracedStart := time.Now()
	for j, i := range seq[n:] {
		start := time.Now()
		took, ok := lt.send(i, &buf)
		rec := record{roundtrip: took}
		var h interval
		var c engineCall
		select {
		case h = <-th.done:
		case <-time.After(10 * time.Second):
			return nil, fmt.Errorf("request %d: the handler did not finish", j)
		}
		select {
		case c = <-te.calls:
		case <-time.After(time.Second):
			return nil, fmt.Errorf("request %d: the engine was not called", j)
		}
		rec.handler, rec.engine, rec.hit = h.dur(), c.dur(), c.cache == obs.CacheHit
		rp.spans = append(rp.spans,
			span{Req: j, Name: "net.roundtrip", StartUS: us(start.Sub(rp.t0)), DurUS: us(took)},
			span{Req: j, Name: "server.handler", Parent: "net.roundtrip", StartUS: us(h.start.Sub(rp.t0)), DurUS: us(rec.handler)},
			span{Req: j, Name: "engine", Parent: "server.handler", StartUS: us(c.start.Sub(rp.t0)), DurUS: us(rec.engine)})
		got, err := rp.replay(j, &defs[i], &rec)
		switch {
		case err != nil:
			res.note(fmt.Sprintf("replay of %s %q: %v", defs[i].path, defs[i].raw, err))
		case !reflect.DeepEqual(got, defs[i].want):
			res.note(fmt.Sprintf("replay of %s %q differs from the served answer", defs[i].path, defs[i].raw))
		case ok:
			traced.ok++
		}
		recs = append(recs, rec)
	}
	traced.wall = time.Since(tracedStart)
	computations := eng.CacheStats().Computations - comps0
	res.count("traced", traced)
	res.note(lp.failures...)
	res.note(lt.failures...)
	if err := writeSpans(filepath.Join(out, "spans-"+w.name+".jsonl"), rp.spans); err != nil {
		return nil, err
	}

	probeAfter := hostProbe()
	fmt.Printf("traced %d requests after %d untraced; %d spans; host.probe_ms before %.3f after %.3f\n",
		len(recs), untraced.sent, len(rp.spans), ms(probeBefore), ms(probeAfter))

	mean := func(f func(r *record) float64) float64 {
		var s float64
		for i := range recs {
			s += f(&recs[i])
		}
		return s / float64(len(recs))
	}
	stage := func(st int) float64 { return mean(func(r *record) float64 { return us(r.stages[st]) }) }
	var lat []time.Duration
	for _, r := range recs {
		lat = append(lat, r.roundtrip)
	}

	res.set("dataset.generate_ms", median(gens), "ms")
	res.set("index.build_ms", median(builds), "ms")
	res.set("index.builds", float64(indexBuilds), "count")
	res.set("index.docs", float64(d.Index.NumDocs()), "count")
	res.set("index.terms", float64(d.Index.NumTerms()), "count")
	res.set("search.search_us", stage(stSearch), "us")
	res.set("search.results", mean(func(r *record) float64 { return float64(r.results) }), "count")
	res.set("core.universe_us", stage(stUniverse), "us")
	res.set("cluster.kmeans_us", stage(stCluster), "us")
	res.set("cluster.iterations", mean(func(r *record) float64 { return float64(r.iterations) }), "count")
	res.set("cluster.restarts", mean(func(r *record) float64 { return float64(r.restarts) }), "count")
	res.set("cluster.abandoned", mean(func(r *record) float64 { return float64(r.abandoned) }), "count")
	res.set("core.problems_us", stage(stProblems), "us")
	res.set("core.solve_us", stage(stSolve), "us")
	res.set("core.evaluations", mean(func(r *record) float64 { return float64(r.evals) }), "count")
	res.set("cache.lookup_us", stage(stLookup), "us")
	res.set("cache.hit_ratio", mean(func(r *record) float64 { return b2f(r.hit) }), "ratio")
	res.set("cache.computations_per_req", float64(computations)/float64(len(recs)), "count")
	res.set("server.handler_us", mean(func(r *record) float64 { return us(r.handler) }), "us")
	res.set("server.overhead_us", mean(func(r *record) float64 { return us(r.handler - r.engine) }), "us")
	res.set("net.transport_us", mean(func(r *record) float64 { return us(r.roundtrip - r.handler) }), "us")
	res.set("trace.roundtrip_us", mean(func(r *record) float64 { return us(r.roundtrip) }), "us")
	res.set("trace.unattributed_us", mean(func(r *record) float64 {
		d := r.engine
		for _, s := range r.stages {
			d -= s
		}
		return us(d)
	}), "us")
	res.set("trace.latency_p50_ms", ms(percentile(lat, 0.5)), "ms")
	res.set("trace.untraced_p50_ms", ms(percentile(untraced.lat, 0.5)), "ms")
	res.set("host.probe_ms", (ms(probeBefore)+ms(probeAfter))/2, "ms")
	return res, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
