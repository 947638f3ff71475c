package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	qec "repro"
	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/document"
	"repro/internal/index"
	"repro/internal/server"
)

// Both the served engine and the in-process reference are built the way
// qec-serve builds them at its default settings: the Wikipedia corpus from
// dataset seed engineSeed+1, expanded with engine seed engineSeed.
const engineSeed = 2011

// workload is one traffic mix. Requests are fixed by the workload and its
// seed alone; the server only ever sees the generated HTTP requests.
type workload struct {
	name string
	// scale is qec-serve's -scale; cacheOff runs it with -cache 0.
	scale    int
	cacheOff bool
	// conns is the number of concurrent closed-loop connections.
	conns int
	// rate sizes a run: a run of S seconds sends round(rate*S) timed
	// requests, a fixed count per run so every run does identical work.
	rate float64
	// build makes the distinct requests and the untimed warm-up order.
	build func(rng *rand.Rand, d *dataset.Dataset) []reqDef
	// draw makes the timed request order over the distinct requests.
	draw func(rng *rand.Rand, defs []reqDef, n int) []int
}

var workloads = []*workload{
	{
		name: "expand-cold", scale: 4, cacheOff: true, conns: 1, rate: 400,
		build: expandDefs([]int{3}),
		draw:  shuffledRounds,
	},
	{
		name: "expand-hot", scale: 4, conns: 2, rate: 8000,
		build: expandDefs([]int{2, 3, 4}),
		draw:  zipfDraw,
	},
	{
		name: "search", scale: 16, conns: 1, rate: 4500,
		build: searchDefs,
		draw:  uniformDraw,
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// serverArgs are qec-serve's flags for this workload: its defaults apart from
// the listen address, the corpus scale and, where the workload says so, the
// cache size.
func (w *workload) serverArgs(addr string) []string {
	args := []string{"-addr", addr, "-scale", fmt.Sprint(w.scale)}
	if w.cacheOff {
		args = append(args, "-cache", "0")
	}
	return args
}

// reqDef is one distinct request: its wire form and the library call it
// stands for.
type reqDef struct {
	path string
	body []byte
	raw  string
	// opts is set for /expand, topK for /search.
	opts qec.ExpandOptions
	topK int
	// want is the reference answer, computed in-process.
	want answer
}

// answer is the comparable content of a response: everything except the
// server's own timing.
type answer struct {
	Original []string
	Queries  []server.ExpandedQuery
	Clusters [][]int
	Hits     []server.SearchHit
	Score    float64
}

// score is the answer's own quality number: the Eq. 1 score of an expansion,
// the mean hit score of a search.
func (a *answer) score() float64 {
	if a.Hits == nil {
		return a.Score
	}
	if len(a.Hits) == 0 {
		return 0
	}
	var s float64
	for _, h := range a.Hits {
		s += h.Score
	}
	return s / float64(len(a.Hits))
}

// expandAnswer is the comparable form of an expansion, built field by field
// the way the server puts it on the wire.
func expandAnswer(exp *qec.Expansion) answer {
	a := answer{Original: exp.Original, Score: exp.Score, Queries: []server.ExpandedQuery{}, Clusters: [][]int{}}
	for _, q := range exp.Queries {
		a.Queries = append(a.Queries, server.ExpandedQuery{
			Terms: q.Terms, Cluster: q.Cluster, Precision: q.Precision, Recall: q.Recall, F: q.F,
		})
	}
	for _, cl := range exp.Clusters {
		a.Clusters = append(a.Clusters, docInts(cl))
	}
	return a
}

func docInts(ids []document.DocID) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

func searchAnswer(results []qec.Result) answer {
	a := answer{Hits: []server.SearchHit{}}
	for _, r := range results {
		a.Hits = append(a.Hits, server.SearchHit{ID: int(r.Doc), Score: r.Score})
	}
	return a
}

// expandDefs makes the Table 1 Wikipedia queries × ks × {iskr, pebc} over
// all results, which is the paper's pipeline at the granularities it studies.
func expandDefs(ks []int) func(*rand.Rand, *dataset.Dataset) []reqDef {
	return func(_ *rand.Rand, d *dataset.Dataset) []reqDef {
		var defs []reqDef
		for _, q := range d.Queries {
			for _, k := range ks {
				for _, m := range []qec.Method{qec.ISKR, qec.PEBC} {
					req := server.ExpandRequest{Query: q.Raw, K: k, Method: strings.ToLower(m.String())}
					body, _ := json.Marshal(req) // a plain struct of strings and ints cannot fail
					defs = append(defs, reqDef{
						path: "/expand", body: body, raw: q.Raw,
						opts: qec.ExpandOptions{K: k, Method: m},
					})
				}
			}
		}
		return defs
	}
}

// searchQueries is the number of distinct /search queries of a run.
const searchQueries = 2000

// searchDefs draws 1–3 term queries from the corpus: each from the terms of
// one random document, so it matches at least that document. Half of them
// start with the document's topic word (the long postings every sense of
// the topic shares), the rest only use the document's own sense words,
// down to rare ones.
func searchDefs(rng *rand.Rand, d *dataset.Dataset) []reqDef {
	an := analysis.Simple()
	seen := map[string]bool{}
	var defs []reqDef
	for len(defs) < searchQueries {
		id := document.DocID(rng.Intn(d.Corpus.Len()))
		terms := docTerms(d.Index, id)
		topic := an.Terms(strings.SplitN(d.Labels[id], "/", 2)[0])
		var q []string
		if rng.Intn(2) == 0 && len(topic) > 0 {
			q = append(q, topic[0])
		}
		for n := 1 + rng.Intn(3); len(q) < n; {
			t := terms[rng.Intn(len(terms))]
			if !slices.Contains(q, t) {
				q = append(q, t)
			}
		}
		raw := strings.Join(q, " ")
		if seen[raw] {
			continue
		}
		seen[raw] = true
		body, _ := json.Marshal(server.SearchRequest{Query: raw, TopK: 10})
		defs = append(defs, reqDef{path: "/search", body: body, raw: raw, topK: 10})
	}
	return defs
}

func docTerms(idx *index.Index, id document.DocID) []string {
	var out []string
	for _, tid := range idx.DocTermIDs(id) {
		out = append(out, idx.TermByID(tid))
	}
	return out
}

// shuffledRounds repeats the distinct requests in rounds, each round in its
// own seeded order, so any whole number of rounds has the same mix.
func shuffledRounds(rng *rand.Rand, defs []reqDef, n int) []int {
	out := make([]int, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(len(defs)) {
			if len(out) < n {
				out = append(out, i)
			}
		}
	}
	return out
}

// zipfDraw draws the requests zipfian, the first distinct request the most
// popular. The popularity order is fixed, not seeded: responses differ in
// size by query and k, so a seeded order would change the work per request
// from seed to seed.
func zipfDraw(rng *rand.Rand, defs []reqDef, n int) []int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(defs)-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

func uniformDraw(rng *rand.Rand, defs []reqDef, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(len(defs))
	}
	return out
}

// corpus generates the workload's corpus exactly as qec-serve does.
func (w *workload) corpus() *dataset.Dataset {
	return dataset.Wikipedia(engineSeed+1, w.scale)
}

// defaultCache is qec-serve's default -cache.
const defaultCache = 1024

// loadEngine loads d into an engine configured like qec-serve's for this
// workload. The caller builds its index.
func (w *workload) loadEngine(d *dataset.Dataset) *qec.Engine {
	opts := []qec.Option{qec.WithSeed(engineSeed)}
	if !w.cacheOff {
		opts = append(opts, qec.WithExpansionCache(defaultCache))
	}
	eng := qec.NewEngine(opts...)
	for _, doc := range d.Corpus.Docs() {
		eng.AddText(doc.Title, doc.Body)
	}
	return eng
}

// newEngine is loadEngine with the index built.
func (w *workload) newEngine(d *dataset.Dataset) *qec.Engine {
	eng := w.loadEngine(d)
	eng.Build()
	return eng
}

// requests makes the workload's distinct requests with their reference
// answers, computed in-process by the library on the same corpus and seed.
func (w *workload) requests(rng *rand.Rand, d *dataset.Dataset, eng *qec.Engine) ([]reqDef, error) {
	defs := w.build(rng, d)
	for i := range defs {
		def := &defs[i]
		if def.path == "/search" {
			def.want = searchAnswer(eng.Search(def.raw, def.topK))
			continue
		}
		exp, err := eng.Expand(def.raw, def.opts)
		if err != nil {
			return nil, fmt.Errorf("reference expansion of %q: %w", def.raw, err)
		}
		def.want = expandAnswer(exp)
	}
	return defs, nil
}
