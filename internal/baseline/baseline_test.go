package baseline

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/document"
	"repro/internal/index"
	"repro/internal/search"
)

func fixture(t *testing.T) (*index.Index, *search.Engine, []document.DocID) {
	t.Helper()
	c := document.NewCorpus()
	texts := []string{
		"apple fruit orchard juice harvest", // 0 fruit
		"apple fruit tree pie",              // 1 fruit
		"apple computer store mac laptop",   // 2 tech
		"apple iphone store launch event",   // 3 tech
		"apple software mac developer",      // 4 tech
		"apple store retail flagship",       // 5 tech
	}
	var ids []document.DocID
	for _, txt := range texts {
		ids = append(ids, c.AddText("", txt))
	}
	idx := index.Build(c, analysis.Simple())
	return idx, search.NewEngine(idx), ids
}

func TestDataCloudsSuggestsPopularWords(t *testing.T) {
	idx, eng, _ := fixture(t)
	uq := search.NewQuery("apple")
	results := eng.Search(uq, search.And, 0)
	dc := &DataClouds{TopK: 3}
	queries := dc.Suggest(idx, results, uq)
	if len(queries) != 3 {
		t.Fatalf("got %d queries", len(queries))
	}
	for _, q := range queries {
		if !q.Contains("apple") || q.Len() != 2 {
			t.Errorf("query %v should be apple + one word", q.Terms)
		}
	}
	// "store" appears in 3 of 6 docs with decent idf — it must be among the
	// suggestions; the singleton words of one fruit doc must not outrank it.
	words := dc.TopWords(idx, results, uq, 3)
	found := false
	for _, w := range words {
		if w == "store" {
			found = true
		}
	}
	if !found {
		t.Errorf("top words %v should include 'store'", words)
	}
}

func TestDataCloudsRankBias(t *testing.T) {
	// The paper's motivating flaw: Data Clouds weights words by the rank of
	// the results they appear in, so words of high-ranked results dominate.
	idx, _, _ := fixture(t)
	uq := search.NewQuery("apple")
	// Hand the tech docs huge scores and fruit docs tiny ones.
	results := []search.Result{
		{Doc: 0, Score: 0.01}, {Doc: 1, Score: 0.01},
		{Doc: 2, Score: 10}, {Doc: 3, Score: 10}, {Doc: 4, Score: 10}, {Doc: 5, Score: 10},
	}
	words := (&DataClouds{}).TopWords(idx, results, uq, 3)
	for _, w := range words {
		if w == "fruit" {
			t.Errorf("fruit should be suppressed by ranking bias, got %v", words)
		}
	}
}

func TestDataCloudsEmptyResults(t *testing.T) {
	idx, _, _ := fixture(t)
	if got := (&DataClouds{}).Suggest(idx, nil, search.NewQuery("apple")); len(got) != 0 {
		t.Errorf("Suggest on empty results = %v", got)
	}
}

func TestDataCloudsExcludesQueryTerms(t *testing.T) {
	idx, eng, _ := fixture(t)
	uq := search.NewQuery("apple", "store")
	results := eng.Search(uq, search.And, 0)
	for _, w := range (&DataClouds{}).TopWords(idx, results, uq, 5) {
		if w == "apple" || w == "store" {
			t.Errorf("query term %q suggested", w)
		}
	}
}

func TestCSLabelsAreClusterSpecific(t *testing.T) {
	idx, _, ids := fixture(t)
	cl := kmeans(idx, ids, cluster.Options{K: 2, Seed: 1, PlusPlus: true})
	if cl.K() != 2 {
		t.Skip("k-means did not produce 2 clusters on fixture")
	}
	cs := &CS{LabelSize: 3}
	uq := search.NewQuery("apple")
	l0 := cs.Label(idx, cl, 0, uq)
	l1 := cs.Label(idx, cl, 1, uq)
	if len(l0) == 0 || len(l1) == 0 {
		t.Fatal("empty labels")
	}
	// Labels must not contain the user query term and must differ between
	// clusters (ICF suppresses shared words).
	for _, w := range append(append([]string{}, l0...), l1...) {
		if w == "apple" {
			t.Error("label contains user query term")
		}
	}
	if reflect.DeepEqual(l0, l1) {
		t.Errorf("labels identical across clusters: %v", l0)
	}
}

func TestCSSuggestOnePerCluster(t *testing.T) {
	idx, _, ids := fixture(t)
	cl := kmeans(idx, ids, cluster.Options{K: 2, Seed: 1, PlusPlus: true})
	cs := &CS{LabelSize: 2}
	queries := cs.Suggest(idx, cl, search.NewQuery("apple"))
	if len(queries) != cl.K() {
		t.Fatalf("got %d queries for %d clusters", len(queries), cl.K())
	}
	for _, q := range queries {
		if !q.Contains("apple") {
			t.Errorf("query %v lost the seed", q.Terms)
		}
		if q.Len() < 2 {
			t.Errorf("query %v has no label words", q.Terms)
		}
	}
}

func TestCSLowCooccurrenceProblem(t *testing.T) {
	// Reproduce the paper's Section 1 critique: words each frequent in a
	// cluster but never co-occurring yield an AND query with no results.
	c := document.NewCorpus()
	var ids []document.DocID
	// 4 docs: "alpha" in docs 0,1; "beta" in docs 2,3 — both frequent, never
	// together. A label {alpha, beta} retrieves nothing.
	for _, txt := range []string{
		"seed alpha alpha alpha", "seed alpha alpha alpha",
		"seed beta beta beta", "seed beta beta beta",
		"seed gamma", "seed delta",
	} {
		ids = append(ids, c.AddText("", txt))
	}
	idx := index.Build(c, analysis.Simple())
	cl := &cluster.Clustering{
		Clusters: [][]document.DocID{ids[:4], ids[4:]},
		Assign:   []int{0, 0, 0, 0, 1, 1},
	}
	cs := &CS{LabelSize: 2}
	q := cs.Suggest(idx, cl, search.NewQuery("seed"))[0]
	got := RetrieveWithin(idx, q, ids)
	if !q.Contains("alpha") || !q.Contains("beta") {
		t.Skipf("label selection picked %v; critique needs alpha+beta", q.Terms)
	}
	if got.Len() != 0 {
		t.Errorf("AND query %v retrieved %d results; expected the empty-result pathology", q.Terms, got.Len())
	}
}

func TestRetrieveWithinRestrictsToUniverse(t *testing.T) {
	idx, _, ids := fixture(t)
	universe := []document.DocID{ids[0], ids[1]}
	got := RetrieveWithin(idx, search.NewQuery("apple"), universe)
	if got.N() != 2 || got.Len() != 2 {
		t.Errorf("got %d of a %d-document universe, want 2 of 2", got.Len(), got.N())
	}
}

func TestQueryLogSuggestByPopularity(t *testing.T) {
	log := NewQueryLog([]LogEntry{
		{Query: "java tutorials", Count: 900},
		{Query: "java games", Count: 800},
		{Query: "java test", Count: 700},
		{Query: "java island travel", Count: 10},
		{Query: "python tutorials", Count: 9999},
		{Query: "java", Count: 100000}, // the seed itself: excluded
	})
	got := log.Suggest("Java", 3)
	if len(got) != 3 {
		t.Fatalf("got %d suggestions", len(got))
	}
	want := [][]string{
		{"java", "tutorials"}, {"java", "games"}, {"java", "test"},
	}
	for i, q := range got {
		if !reflect.DeepEqual(q.Terms, want[i]) {
			t.Errorf("suggestion %d = %v, want %v", i, q.Terms, want[i])
		}
	}
}

func TestQueryLogMultiTermSeed(t *testing.T) {
	log := NewQueryLog([]LogEntry{
		{Query: "canon products cameras", Count: 50},
		{Query: "sony products", Count: 60},
		{Query: "canon printers", Count: 70},
	})
	got := log.Suggest("canon products", 5)
	if len(got) != 1 || !got[0].Contains("cameras") {
		t.Errorf("Suggest = %v", got)
	}
}

func TestQueryLogNoMatches(t *testing.T) {
	log := NewQueryLog([]LogEntry{{Query: "alpha beta", Count: 1}})
	if got := log.Suggest("gamma", 3); len(got) != 0 {
		t.Errorf("Suggest = %v", got)
	}
}

func TestQueryLogDeterministicTieBreak(t *testing.T) {
	log := NewQueryLog([]LogEntry{
		{Query: "x b", Count: 5},
		{Query: "x a", Count: 5},
	})
	got := log.Suggest("x", 2)
	if got[0].Terms[1] != "a" || got[1].Terms[1] != "b" {
		t.Errorf("tie-break not alphabetical: %v", got)
	}
}

// kmeans clusters documents of idx through cluster.KMeansVecs over their
// corpus-global TF vectors.
func kmeans(idx *index.Index, docs []document.DocID, opts cluster.Options) *cluster.Clustering {
	return cluster.KMeansVecs(idx.NumTerms(), cluster.VectorsFromDocs(idx, docs), docs, opts)
}
