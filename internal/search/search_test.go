package search

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/document"
	"repro/internal/index"
)

func buildEngine(t *testing.T) *Engine {
	t.Helper()
	c := document.NewCorpus()
	c.AddText("", "apple fruit orchard")         // 0
	c.AddText("", "apple computer store")        // 1
	c.AddText("", "apple store location")        // 2
	c.AddText("", "banana fruit")                // 3
	c.AddText("", "apple apple apple fruit pie") // 4
	return NewEngine(index.Build(c, analysis.Simple()))
}

func TestEvalAnd(t *testing.T) {
	e := buildEngine(t)
	got := e.Eval(NewQuery("apple", "fruit"), And)
	want := []document.DocID{0, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Eval = %v, want %v", got, want)
	}
}

func TestEvalAndNoMatch(t *testing.T) {
	e := buildEngine(t)
	if got := e.Eval(NewQuery("apple", "banana"), And); len(got) != 0 {
		t.Errorf("Eval = %v, want empty", got)
	}
	if got := e.Eval(NewQuery("nosuchterm"), And); len(got) != 0 {
		t.Errorf("Eval unseen term = %v, want empty", got)
	}
}

func TestEvalAndEmptyQueryMatchesAll(t *testing.T) {
	e := buildEngine(t)
	if got := len(e.Eval(NewQuery(), And)); got != 5 {
		t.Errorf("empty AND query matched %d docs, want 5", got)
	}
}

func TestEvalOr(t *testing.T) {
	e := buildEngine(t)
	got := e.Eval(NewQuery("banana", "orchard"), Or)
	want := []document.DocID{0, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Eval = %v, want %v", got, want)
	}
	if got := len(e.Eval(NewQuery(), Or)); got != 0 {
		t.Errorf("empty OR query matched %d docs, want 0", got)
	}
}

func TestSearchRankingByTF(t *testing.T) {
	e := buildEngine(t)
	res := e.Search(NewQuery("apple"), And, 0)
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4", len(res))
	}
	// d4 has apple 3 times; it should rank first despite longer doc.
	if res[0].Doc != 4 {
		t.Errorf("top result = %d, want 4", res[0].Doc)
	}
	for i := 1; i < len(res); i++ {
		if res[i-1].Score < res[i].Score {
			t.Error("results not sorted by descending score")
		}
	}
}

func TestSearchTopK(t *testing.T) {
	e := buildEngine(t)
	res := e.Search(NewQuery("apple"), And, 2)
	if len(res) != 2 {
		t.Errorf("topK=2 returned %d", len(res))
	}
}

func TestSearchDeterministicTieBreak(t *testing.T) {
	e := buildEngine(t)
	a := e.Search(NewQuery("apple"), And, 0)
	b := e.Search(NewQuery("apple"), And, 0)
	if !reflect.DeepEqual(a, b) {
		t.Error("Search not deterministic")
	}
}

func TestQueryWithWithout(t *testing.T) {
	q := NewQuery("apple")
	q2 := q.With("fruit")
	if q.Len() != 1 || q2.Len() != 2 {
		t.Error("With mutated receiver or failed to add")
	}
	if q3 := q2.With("fruit"); q3.Len() != 2 {
		t.Error("With duplicated term")
	}
	q4 := q2.Without("apple")
	if q4.Len() != 1 || q4.Contains("apple") || !q4.Contains("fruit") {
		t.Errorf("Without = %v", q4.Terms)
	}
	if q2.Len() != 2 {
		t.Error("Without mutated receiver")
	}
}

func TestQueryWithDoesNotShareBacking(t *testing.T) {
	q := NewQuery("a", "b")
	q2 := q.With("c")
	q3 := q.With("d")
	if q2.Terms[2] == "d" || q3.Terms[2] == "c" {
		t.Error("With shares backing array between derived queries")
	}
}

func TestNewQueryDeduplicates(t *testing.T) {
	q := NewQuery("a", "b", "a", "c", "b")
	if got := q.Terms; !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Terms = %v", got)
	}
}

func TestParseQuery(t *testing.T) {
	e := buildEngine(t)
	q := ParseQuery(e.Index(), "Apple  the Fruit")
	if got := q.Terms; !reflect.DeepEqual(got, []string{"apple", "fruit"}) {
		t.Errorf("ParseQuery = %v", got)
	}
}

func TestParseQueryKeepsComposite(t *testing.T) {
	e := buildEngine(t)
	q := ParseQuery(e.Index(), "TV:Brand:Toshiba plasma")
	if !q.Contains("tv:brand:toshiba") || !q.Contains("plasma") {
		t.Errorf("ParseQuery = %v", q.Terms)
	}
}

// TestParseQueryDeduplicatesCompositeCase: case variants of one field:value
// token are one term, kept once in its lowercased form.
func TestParseQueryDeduplicatesCompositeCase(t *testing.T) {
	e := buildEngine(t)
	q := ParseQuery(e.Index(), "Brand:Canon brand:canon printer BRAND:CANON")
	if want := []string{"brand:canon", "printer"}; !slices.Equal(q.Terms, want) {
		t.Errorf("ParseQuery = %q, want %q", q.Terms, want)
	}
}

func TestQueryString(t *testing.T) {
	if got := NewQuery("a", "b").String(); got != "a b" {
		t.Errorf("String = %q", got)
	}
}

func TestResultSet(t *testing.T) {
	ids := ResultIDs([]Result{{Doc: 3}, {Doc: 1}, {Doc: 2}})
	if !slices.Equal(ids, []document.DocID{1, 2, 3}) {
		t.Errorf("ResultIDs = %v, want the result set in ascending order", ids)
	}
}

// Property: AND results contain all query terms; adding a term never grows
// the result set (anti-monotonicity) — the core retrieval invariant the QEC
// algorithms rely on.
func TestSearchPropertyAndSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	words := []string{"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"}
	c := document.NewCorpus()
	for i := 0; i < 60; i++ {
		n := 1 + rng.Intn(6)
		text := ""
		for j := 0; j < n; j++ {
			if j > 0 {
				text += " "
			}
			text += words[rng.Intn(len(words))]
		}
		c.AddText("", text)
	}
	idx := index.Build(c, analysis.Simple())
	e := NewEngine(idx)
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(3)
		terms := make([]string, k)
		for i := range terms {
			terms[i] = words[rng.Intn(len(words))]
		}
		q := NewQuery(terms...)
		res := e.Eval(q, And)
		if !sort.SliceIsSorted(res, func(i, j int) bool { return res[i] < res[j] }) {
			t.Fatalf("AND Eval not ascending: %v", res)
		}
		for _, id := range res {
			for _, term := range q.Terms {
				if !idx.HasTerm(id, term) {
					t.Fatalf("doc %d in R(%v) but lacks %q", id, q.Terms, term)
				}
			}
		}
		// anti-monotonicity
		extended := q.With(words[rng.Intn(len(words))])
		sub := e.Eval(extended, And)
		if len(sub) > len(res) {
			t.Fatalf("adding a keyword grew the result set: %d -> %d", len(res), len(sub))
		}
		for _, id := range sub {
			if _, ok := slices.BinarySearch(res, id); !ok {
				t.Fatalf("R(q∪k) ⊄ R(q)")
			}
		}
		// OR is the dual: superset of every single-term result set.
		orRes := e.Eval(q, Or)
		if !sort.SliceIsSorted(orRes, func(i, j int) bool { return orRes[i] < orRes[j] }) {
			t.Fatalf("OR Eval not ascending: %v", orRes)
		}
		for _, term := range q.Terms {
			for _, id := range e.Eval(NewQuery(term), Or) {
				if _, ok := slices.BinarySearch(orRes, id); !ok {
					t.Fatalf("R(%q) ⊄ OR result", term)
				}
			}
		}
	}
}

// Property: scores are non-negative and sorted output is stable under rerun.
func TestSearchPropertyScoresNonNegative(t *testing.T) {
	e := buildEngine(t)
	for _, q := range []Query{NewQuery("apple"), NewQuery("fruit"), NewQuery("apple", "fruit")} {
		res := e.Search(q, And, 0)
		for _, r := range res {
			if r.Score < 0 {
				t.Errorf("negative score %v for doc %d", r.Score, r.Doc)
			}
		}
		if !sort.SliceIsSorted(res, func(i, j int) bool {
			if res[i].Score != res[j].Score {
				return res[i].Score > res[j].Score
			}
			return res[i].Doc < res[j].Doc
		}) {
			t.Error("results not sorted")
		}
	}
}
