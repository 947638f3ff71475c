package dataset

import (
	"hash/fnv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/document"
	"repro/internal/index"
	"repro/internal/search"
)

func TestShoppingDeterministic(t *testing.T) {
	a := Shopping(1, 1)
	b := Shopping(1, 1)
	if a.Corpus.Len() != b.Corpus.Len() {
		t.Fatal("different corpus sizes for same seed")
	}
	for i := 0; i < a.Corpus.Len(); i++ {
		da, db := a.Corpus.Get(document.DocID(i)), b.Corpus.Get(document.DocID(i))
		if da.Title != db.Title || len(da.Triplets) != len(db.Triplets) {
			t.Fatalf("doc %d differs between same-seed runs", i)
		}
	}
}

func TestShoppingScale(t *testing.T) {
	small := Shopping(1, 1)
	big := Shopping(1, 3)
	if big.Corpus.Len() != 3*small.Corpus.Len() {
		t.Errorf("scale 3 = %d docs, want %d", big.Corpus.Len(), 3*small.Corpus.Len())
	}
}

func TestShoppingQueriesRetrieve(t *testing.T) {
	d := Shopping(1, 1)
	eng := search.NewEngine(d.Index)
	for _, tq := range d.Queries {
		q := search.ParseQuery(d.Index, tq.Raw)
		res := eng.Eval(q, search.And)
		if len(res) == 0 {
			t.Errorf("%s %q retrieved nothing", tq.ID, tq.Raw)
		}
	}
}

func TestShoppingQS1RetrievesThreeCanonCategories(t *testing.T) {
	d := Shopping(1, 1)
	eng := search.NewEngine(d.Index)
	res := eng.Eval(search.ParseQuery(d.Index, "canon products"), search.And)
	cats := map[string]bool{}
	for _, id := range res {
		cats[d.Labels[id]] = true
	}
	for _, want := range []string{"canon-camera", "canon-camcorder", "canon-printer"} {
		if !cats[want] {
			t.Errorf("QS1 missing category %s (got %v)", want, cats)
		}
	}
	// And nothing else: canon products are exactly the canon families.
	for cat := range cats {
		switch cat {
		case "canon-camera", "canon-camcorder", "canon-printer":
		default:
			t.Errorf("QS1 retrieved unexpected category %s", cat)
		}
	}
}

func TestShoppingCompositeTermsSearchable(t *testing.T) {
	d := Shopping(1, 1)
	eng := search.NewEngine(d.Index)
	res := eng.Eval(search.NewQuery("canonproducts:category:camcorders"), search.And)
	if len(res) == 0 {
		t.Fatal("composite triplet term retrieves nothing")
	}
	for _, id := range res {
		if d.Labels[id] != "canon-camcorder" {
			t.Errorf("composite term retrieved %s", d.Labels[id])
		}
	}
}

func TestShoppingCategoriesClusterCleanly(t *testing.T) {
	// The key structural property: canon product categories separate under
	// k-means, so near-perfect expanded queries exist (Figure 5a).
	d := Shopping(1, 1)
	eng := search.NewEngine(d.Index)
	res := eng.Eval(search.ParseQuery(d.Index, "canon products"), search.And)
	cl := kmeans(d.Index, res, cluster.Options{K: 3, Seed: 7, PlusPlus: true})
	p := cluster.Purity(cl, d.Labels)
	if p < 0.9 {
		t.Errorf("canon cluster purity = %v, want >= 0.9", p)
	}
}

func TestShoppingQS8MemorySizes(t *testing.T) {
	d := Shopping(1, 1)
	eng := search.NewEngine(d.Index)
	res := eng.Eval(search.ParseQuery(d.Index, "memory 8gb"), search.And)
	if len(res) == 0 {
		t.Fatal("QS8 empty")
	}
	for _, id := range res {
		if !d.Index.HasTerm(id, "8gb") {
			t.Errorf("doc %d retrieved without 8gb", id)
		}
	}
}

func TestShoppingLogHasOutOfCorpusSuggestion(t *testing.T) {
	d := Shopping(1, 1)
	// "sony products" must be in the log while sony cameras are not a
	// product family — the paper's Google critique for QS1.
	found := false
	for _, e := range d.Log {
		if e.Query == "sony products" {
			found = true
		}
	}
	if !found {
		t.Error("log lacks the out-of-corpus 'sony products' suggestion")
	}
}

func TestWikipediaDeterministic(t *testing.T) {
	a, b := Wikipedia(2, 1), Wikipedia(2, 1)
	if a.Corpus.Len() != b.Corpus.Len() {
		t.Fatal("different sizes")
	}
	for i := 0; i < a.Corpus.Len(); i++ {
		if a.Corpus.Get(document.DocID(i)).Body != b.Corpus.Get(document.DocID(i)).Body {
			t.Fatalf("doc %d differs", i)
		}
	}
}

func TestWikipediaQueriesRetrieveAllSenses(t *testing.T) {
	d := Wikipedia(2, 1)
	eng := search.NewEngine(d.Index)
	for _, tq := range d.Queries {
		q := search.ParseQuery(d.Index, tq.Raw)
		res := eng.Eval(q, search.And)
		if len(res) < 20 {
			t.Errorf("%s retrieved only %d results", tq.ID, len(res))
		}
		senses := map[string]bool{}
		for _, id := range res {
			senses[d.Labels[id]] = true
		}
		if len(senses) < 2 {
			t.Errorf("%s: only %d senses retrieved (%v)", tq.ID, len(senses), senses)
		}
	}
}

func TestWikipediaSensesSeparate(t *testing.T) {
	d := Wikipedia(2, 1)
	eng := search.NewEngine(d.Index)
	res := eng.Eval(search.ParseQuery(d.Index, "java"), search.And)
	cl := kmeans(d.Index, res,
		cluster.Options{K: 3, Seed: 3, PlusPlus: true, Restarts: 5})
	if p := cluster.Purity(cl, d.Labels); p < 0.8 {
		t.Errorf("java sense purity = %v, want >= 0.8", p)
	}
}

func TestWikipediaScaleSupportsScalabilitySweep(t *testing.T) {
	// Figure 7 needs up to 500 "columbia" results.
	d := Wikipedia(2, 15)
	eng := search.NewEngine(d.Index)
	res := eng.Eval(search.ParseQuery(d.Index, "columbia"), search.And)
	if len(res) < 500 {
		t.Errorf("columbia at scale 15 = %d results, want >= 500", len(res))
	}
}

func TestWikipediaRocketsLogMissesNBASense(t *testing.T) {
	d := Wikipedia(2, 1)
	for _, e := range d.Log {
		if !containsWord(e.Query, "rockets") {
			continue
		}
		if containsWord(e.Query, "nba") || containsWord(e.Query, "houston") {
			t.Errorf("rockets log entry %q covers the NBA sense; the critique needs it missing", e.Query)
		}
	}
}

func containsWord(s, w string) bool {
	fields := []rune(s)
	_ = fields
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ' ' {
			if s[start:i] == w {
				return true
			}
			start = i + 1
		}
	}
	return false
}

func TestQueryByID(t *testing.T) {
	d := Shopping(1, 1)
	q, ok := d.QueryByID("QS4")
	if !ok || q.Raw != "tv" {
		t.Errorf("QueryByID(QS4) = %v, %v", q, ok)
	}
	if _, ok := d.QueryByID("QW1"); ok {
		t.Error("shopping dataset should not contain QW1")
	}
}

func TestLabelsCoverEveryDoc(t *testing.T) {
	for _, d := range []*Dataset{Shopping(1, 1), Wikipedia(2, 1)} {
		for i := 0; i < d.Corpus.Len(); i++ {
			if d.Labels[document.DocID(i)] == "" {
				t.Errorf("%s: doc %d unlabeled", d.Name, i)
			}
		}
	}
}

// kmeans clusters documents of idx through cluster.KMeansVecs over their
// corpus-global TF vectors.
func kmeans(idx *index.Index, docs []document.DocID, opts cluster.Options) *cluster.Clustering {
	return cluster.KMeansVecs(idx.NumTerms(), cluster.VectorsFromDocs(idx, docs), docs, opts)
}

// corpusTextHash is an FNV-64a over every document's FullText in ID order,
// each followed by a NUL, so a change to any document's text or to the
// document count moves it.
func corpusTextHash(d *Dataset) uint64 {
	h := fnv.New64a()
	for _, doc := range d.Corpus.Docs() {
		h.Write([]byte(doc.FullText()))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// TestGeneratedTextPinned pins the generated corpora byte for byte, so
// rewriting how the generators build text cannot change the text or the
// order of RNG draws behind it.
func TestGeneratedTextPinned(t *testing.T) {
	cases := []struct {
		name string
		gen  func() *Dataset
		want uint64
	}{
		{"wikipedia/2012/1", func() *Dataset { return Wikipedia(2012, 1) }, 0xee4752741aaa34a3},
		{"wikipedia/2012/16", func() *Dataset { return Wikipedia(2012, 16) }, 0xf2e85b1c23b591ef},
		{"shopping/2011/1", func() *Dataset { return Shopping(2011, 1) }, 0x680f9ab33a430668},
		{"shopping/2011/4", func() *Dataset { return Shopping(2011, 4) }, 0x85d20f88d902b741},
	}
	for _, c := range cases {
		if got := corpusTextHash(c.gen()); got != c.want {
			t.Errorf("%s: text hash %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
