package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/document"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/search"
)

// randomInstance builds the raw material of a random Definition 2.2
// instance with nc cluster results, nu other results and a keyword
// vocabulary of size nk.
func randomInstance(seed int64, nc, nu, nk int, weighted bool) (c, u docSet,
	contain map[string]docSet, w eval.Weights) {

	rng := rand.New(rand.NewSource(seed))
	c, u = docSet{}, docSet{}
	for i := 0; i < nc; i++ {
		c.Add(document.DocID(i))
	}
	for i := 0; i < nu; i++ {
		u.Add(document.DocID(1000 + i))
	}
	universe := c.Union(u)
	ids := universe.IDs() // iterate deterministically while consuming rng
	contain = map[string]docSet{}
	for k := 0; k < nk; k++ {
		name := string(rune('a'+k%26)) + string(rune('0'+k/26))
		set := docSet{}
		for _, id := range ids {
			// Bias: cluster docs share keywords more often.
			pIn := 0.35
			if c.Contains(id) {
				pIn = 0.6
			}
			if rng.Float64() < pIn {
				set.Add(id)
			}
		}
		contain[name] = set
	}
	if weighted {
		w = eval.Weights{}
		for _, id := range ids {
			w[id] = 0.5 + rng.Float64()*4
		}
	}
	return c, u, contain, w
}

// randomRef assembles a random Definition 2.2 problem beside its map
// reference.
func randomRef(seed int64, nc, nu, nk int, weighted bool) *refProblem {
	c, u, contain, w := randomInstance(seed, nc, nu, nk, weighted)
	return newRef(search.NewQuery("seed"), c, u, w, contain)
}

// randomProblem assembles a random Definition 2.2 problem.
func randomProblem(seed int64, nc, nu, nk int, weighted bool) *Problem {
	return randomRef(seed, nc, nu, nk, weighted).p
}

// prfClose compares PRF structs with a tolerance for floating-point
// summation order (rank weights are accumulated in map iteration order).
func prfClose(a, b eval.PRF) bool {
	const eps = 1e-9
	return math.Abs(a.Precision-b.Precision) < eps &&
		math.Abs(a.Recall-b.Recall) < eps && math.Abs(a.F-b.F) < eps
}

func TestValueConventions(t *testing.T) {
	if value(0, 0) != 0 {
		t.Error("value(0,0) should be 0")
	}
	if !math.IsInf(value(3, 0), 1) {
		t.Error("value(3,0) should be +Inf")
	}
	if value(6, 4) != 1.5 {
		t.Error("value(6,4) should be 1.5")
	}
}

func TestRetrieveIsAntiMonotone(t *testing.T) {
	p := randomProblem(1, 10, 15, 8, false)
	q := p.UserQuery
	prev := p.retrieveBits(q)
	if !prev.Equal(p.allB) {
		t.Fatal("R(user query) must be the whole universe")
	}
	for _, k := range p.Pool[:4] {
		q = q.With(k)
		cur := p.retrieveBits(q)
		if cur.Len() != cur.AndLen(prev) {
			t.Fatalf("adding %q grew the result set", k)
		}
		prev = cur
	}
}

func TestRetrieveForeignTermEmpty(t *testing.T) {
	p := randomProblem(2, 5, 5, 4, false)
	r := p.retrieveBits(p.UserQuery.With("not-in-pool"))
	if r.Len() != 0 {
		t.Errorf("foreign term retrieved %d docs", r.Len())
	}
}

func TestISKRTerminatesAndOutputsValidQuery(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := randomProblem(seed, 8+int(seed%5), 12, 10, seed%2 == 0)
		got := (&ISKR{}).Expand(p)
		if !got.Query.Contains("seed") {
			t.Fatalf("seed %d: expanded query lost the user query term", seed)
		}
		for _, term := range got.Query.Terms {
			if term == "seed" {
				continue
			}
			if _, ok := p.kwID(term); !ok {
				t.Fatalf("seed %d: expanded term %q not in pool", seed, term)
			}
		}
		prf := p.Measure(got.Query)
		if !prfClose(prf, got.PRF) {
			t.Fatalf("seed %d: reported PRF %+v != recomputed %+v", seed, got.PRF, prf)
		}
	}
}

func TestISKRKeepBestNeverBelowSeed(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := randomProblem(seed, 10, 14, 12, false)
		seedF := p.FMeasure(p.UserQuery)
		got := (&ISKR{KeepBest: true}).Expand(p)
		if got.PRF.F < seedF-1e-12 {
			t.Fatalf("seed %d: KeepBest F %v below seed F %v", seed, got.PRF.F, seedF)
		}
	}
}

func TestISKRDeterministic(t *testing.T) {
	p1 := randomProblem(7, 10, 12, 10, false)
	p2 := randomProblem(7, 10, 12, 10, false)
	a := (&ISKR{}).Expand(p1)
	b := (&ISKR{}).Expand(p2)
	if a.Query.String() != b.Query.String() || a.PRF != b.PRF {
		t.Errorf("nondeterministic: %v vs %v", a.Query.Terms, b.Query.Terms)
	}
}

func TestISKRPerfectSeparationFindsPerfectQuery(t *testing.T) {
	// One keyword exactly selects the cluster: ISKR must find F=1.
	c := newDocSet(1, 2, 3)
	u := newDocSet(10, 11, 12, 13)
	contain := map[string]docSet{
		"golden": c.Clone(),            // exactly the cluster
		"noise1": newDocSet(1, 10, 11), // partial
		"noise2": newDocSet(2, 3, 12),  // partial
	}
	p := newProblemFromSets(search.NewQuery("q"), c, u, nil, contain)
	got := (&ISKR{}).Expand(p)
	if got.PRF.F != 1 {
		t.Errorf("F = %v, want 1 (golden keyword available); query = %v",
			got.PRF.F, got.Query.Terms)
	}
	if !got.Query.Contains("golden") {
		t.Errorf("query = %v, want golden included", got.Query.Terms)
	}
}

func TestPEBCTerminatesAndOutputsValidQuery(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := randomProblem(seed, 9, 13, 10, seed%2 == 1)
		got := (&PEBC{Seed: seed}).Expand(p)
		if !got.Query.Contains("seed") {
			t.Fatalf("seed %d: lost user query term", seed)
		}
		if !prfClose(got.PRF, p.Measure(got.Query)) {
			t.Fatalf("seed %d: PRF mismatch", seed)
		}
		if got.Iterations == 0 || got.Evaluations == 0 {
			t.Fatalf("seed %d: no work recorded", seed)
		}
	}
}

func TestPEBCNeverWorseThanSeedQuery(t *testing.T) {
	// PEBC's x=0 sample is the unexpanded query, so the best sample can
	// never score below it.
	for seed := int64(0); seed < 20; seed++ {
		p := randomProblem(100+seed, 10, 15, 12, false)
		seedF := p.FMeasure(p.UserQuery)
		got := (&PEBC{Seed: seed}).Expand(p)
		if got.PRF.F < seedF-1e-12 {
			t.Fatalf("seed %d: PEBC F %v < seed F %v", seed, got.PRF.F, seedF)
		}
	}
}

func TestPEBCDeterministicPerSeed(t *testing.T) {
	p := randomProblem(3, 10, 12, 10, false)
	a := (&PEBC{Seed: 5}).Expand(p)
	b := (&PEBC{Seed: 5}).Expand(randomProblem(3, 10, 12, 10, false))
	if a.Query.String() != b.Query.String() {
		t.Errorf("nondeterministic per seed: %v vs %v", a.Query.Terms, b.Query.Terms)
	}
}

func TestPEBCPerfectSeparation(t *testing.T) {
	c := newDocSet(1, 2, 3, 4)
	u := newDocSet(10, 11, 12)
	contain := map[string]docSet{
		"golden": c.Clone(),
		"half":   newDocSet(1, 2, 10),
	}
	p := newProblemFromSets(search.NewQuery("q"), c, u, nil, contain)
	got := (&PEBC{Seed: 1}).Expand(p)
	if got.PRF.F != 1 {
		t.Errorf("F = %v, want 1; query = %v", got.PRF.F, got.Query.Terms)
	}
}

func TestPEBCSampleTargets(t *testing.T) {
	a := &PEBC{Segments: 4}
	got := a.SampleTargets()
	want := []float64{0, 25, 50, 75, 100}
	if len(got) != len(want) {
		t.Fatalf("targets = %v", got)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("targets = %v, want %v", got, want)
		}
	}
}

func TestPEBCStrategyNames(t *testing.T) {
	if (&PEBC{}).Name() != "PEBC" {
		t.Error("default name")
	}
	if (&PEBC{Strategy: SelectFixedOrder}).Name() != "PEBC-fixed-order" {
		t.Error("fixed-order name")
	}
	if (&PEBC{Strategy: SelectSubset}).Name() != "PEBC-subset" {
		t.Error("subset name")
	}
}

func TestFMeasureVariantMonotoneImprovement(t *testing.T) {
	// Unlike ISKR, the F-measure variant accepts only F-improving steps, so
	// its result is always >= the seed query's F.
	for seed := int64(0); seed < 15; seed++ {
		p := randomProblem(200+seed, 9, 12, 10, false)
		seedF := p.FMeasure(p.UserQuery)
		got := (&FMeasureVariant{}).Expand(p)
		if got.PRF.F < seedF-1e-12 {
			t.Fatalf("seed %d: F-variant F %v < seed %v", seed, got.PRF.F, seedF)
		}
	}
}

func TestFMeasureVariantRescansEveryKeywordPerStep(t *testing.T) {
	// The efficiency claim of Section 5.3 rests on the F-measure method
	// re-evaluating every candidate per accepted step (each evaluation being
	// a full result-set computation), while ISKR touches only keywords
	// absent from some delta result.
	p := randomProblem(42, 40, 60, 60, false)
	fm := (&FMeasureVariant{}).Expand(p)
	poolSize := len(p.Pool)
	// Every iteration (plus the final non-improving scan) evaluates at
	// least the whole addition pool minus terms already in the query.
	minEvals := (fm.Iterations + 1) * (poolSize - fm.Iterations - 1)
	if fm.Evaluations < minEvals {
		t.Errorf("F-measure evals %d < expected full-rescan bound %d",
			fm.Evaluations, minEvals)
	}

	// ISKR: a keyword contained in every document is never affected by any
	// delta, so after the initial scan it must never be re-evaluated.
	// Verify by comparing against the full-recompute upper bound.
	c2, u2, contain2, _ := randomInstance(42, 40, 60, 60, false)
	contain2["ubiquitous"] = c2.Union(u2)
	p2 := newProblemFromSets(search.NewQuery("seed"), c2, u2, nil, contain2)
	is := (&ISKR{}).Expand(p2)
	fullRecompute := len(p2.Pool) + is.Iterations*(len(p2.Pool)+8)
	if is.Evaluations >= fullRecompute {
		t.Errorf("ISKR evals %d not below full-recompute bound %d (iters %d)",
			is.Evaluations, fullRecompute, is.Iterations)
	}
}

func TestSolveAggregatesEq1(t *testing.T) {
	p1 := randomProblem(1, 8, 8, 8, false)
	p2 := randomProblem(2, 8, 8, 8, false)
	res := Solve(&ISKR{}, []*Problem{p1, p2})
	if res.Method != "ISKR" || len(res.Expansions) != 2 {
		t.Fatalf("res = %+v", res)
	}
	want := eval.Score(res.FMeasures())
	if math.Abs(res.Score-want) > 1e-12 {
		t.Errorf("Score = %v, want %v", res.Score, want)
	}
	if len(res.Queries()) != 2 {
		t.Error("Queries length")
	}
	if res.TotalEvaluations() <= 0 {
		t.Error("TotalEvaluations")
	}
}

func TestClusterExpandPartition(t *testing.T) {
	// Index a tiny corpus, run the pipeline over its results, and check the
	// problems partition the universe correctly.
	corpus := document.NewCorpus()
	texts := []string{
		"apple fruit orchard juice", "apple fruit tree harvest",
		"apple pie fruit bake", "apple computer store mac",
		"apple iphone store launch", "apple software mac laptop",
	}
	var ids []document.DocID
	for _, txt := range texts {
		ids = append(ids, corpus.AddText("", txt))
	}
	idx := index.Build(corpus, analysis.Simple())
	q := search.NewQuery("apple")
	run, err := ClusterExpand(context.Background(), ClusterInput{
		Index: idx, Query: q, Results: search.NewEngine(idx).Search(q, search.And, 0),
		Unweighted: true, Cluster: cluster.Options{K: 2, Seed: 1, PlusPlus: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := run.Clustering
	if run.Result != nil || run.Problems != nil {
		t.Error("no Solver, yet problems or a result were returned")
	}
	problems := run.Universe.Problems(cl.Sets())
	if len(problems) != cl.K() {
		t.Fatalf("built %d problems for %d clusters", len(problems), cl.K())
	}
	for i, p := range problems {
		if p.cB.AndLen(p.uB) != 0 {
			t.Errorf("problem %d: C and U overlap", i)
		}
		if p.allB.Len() != len(ids) || p.cB.Len()+p.uB.Len() != len(ids) {
			t.Errorf("problem %d: C ∪ U = %d+%d docs, want %d", i, p.cB.Len(), p.uB.Len(), len(ids))
		}
		if len(p.Pool) == 0 {
			t.Errorf("problem %d: empty pool", i)
		}
		for _, k := range p.Pool {
			if k == "apple" {
				t.Errorf("problem %d: user query term in pool", i)
			}
		}
	}
}

func TestNewProblemPoolRespectsBounds(t *testing.T) {
	corpus := document.NewCorpus()
	var ids []document.DocID
	words := []string{"w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8", "w9", "w10",
		"w11", "w12", "w13", "w14", "w15", "w16", "w17", "w18", "w19", "w20"}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 30; i++ {
		text := "seed"
		for j := 0; j < 8; j++ {
			text += " " + words[rng.Intn(len(words))]
		}
		ids = append(ids, corpus.AddText("", text))
	}
	idx := index.Build(corpus, analysis.Simple())
	// ids ascend, so dense ID = position: the first 15 and the last 15.
	sets := []document.BitSet{document.NewBitSet(len(ids)), document.NewBitSet(len(ids))}
	for di := range ids {
		sets[di/15].Add(di)
	}
	q := search.NewQuery("seed")
	p := NewUniverse(idx, q, ids, nil,
		PoolOptions{TopFraction: 0.2, MinKeywords: 2, MaxKeywords: 5}).Problems(sets)[0]
	if len(p.Pool) > 5 {
		t.Errorf("pool %d exceeds max 5", len(p.Pool))
	}
	p2 := NewUniverse(idx, q, ids, nil,
		PoolOptions{TopFraction: 0.01, MinKeywords: 7}).Problems(sets)[0]
	if len(p2.Pool) < 7 {
		t.Errorf("pool %d below floor 7", len(p2.Pool))
	}
}

func TestWeightedProblemPrioritizesHighRankResults(t *testing.T) {
	// Two keywords: "heavy" keeps the high-scored half of the cluster,
	// "light" keeps the low-scored half; both eliminate all of U. With rank
	// weights the algorithms must prefer "heavy".
	c := newDocSet(1, 2, 3, 4)
	u := newDocSet(10, 11)
	contain := map[string]docSet{
		"heavy": newDocSet(1, 2),
		"light": newDocSet(3, 4),
	}
	w := eval.Weights{1: 10, 2: 10, 3: 1, 4: 1, 10: 1, 11: 1}
	ref := newRef(search.NewQuery("q"), c, u, w, contain)
	p := ref.p
	got := (&ISKR{}).Expand(p)
	if got.Query.Contains("light") {
		t.Errorf("ISKR chose the low-rank keyword: %v", got.Query.Terms)
	}
	if got.Query.Contains("heavy") {
		// heavy: benefit 2 (u eliminated), cost 2 (light docs) -> weighted:
		// benefit = 2, cost = 2 -> value 1, so it may refuse both; either
		// way "light" (benefit 2, cost 20 -> 0.1) must not be chosen.
		r := ref.set(p.retrieveBits(got.Query))
		if r.Contains(3) || r.Contains(4) {
			t.Error("heavy query should retrieve only the heavy docs")
		}
	}
}
