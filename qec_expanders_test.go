package qec

// Tests for the pluggable Expander layer: registry-driven ParseMethod,
// MethodName dispatch, per-method cache isolation, custom backends, engine
// determinism across runs and worker counts, and a cross-backend interleave
// property run scored by the user-study simulator.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/document"
	"repro/internal/eval"
	"repro/internal/search"
	"repro/internal/userstudy"
)

// wikiEngine builds an engine over the deterministic Wikipedia corpus —
// large enough that clustering and per-cluster fans actually engage.
func wikiEngine(t testing.TB, opts ...Option) *Engine {
	t.Helper()
	e := NewEngine(append([]Option{WithSeed(1)}, opts...)...)
	senses := map[string][]string{
		"programming": {"server", "code", "web", "software", "language", "class", "virtual", "machine"},
		"island":      {"island", "indonesia", "volcano", "jakarta", "sea", "population"},
		"coffee":      {"coffee", "bean", "roast", "brew", "plantation", "drink"},
	}
	i := 0
	for _, sense := range []string{"programming", "island", "coffee"} {
		vocab := senses[sense]
		for d := 0; d < 8; d++ {
			body := "java"
			for w := 0; w < 6; w++ {
				body += " " + vocab[(d+w)%len(vocab)]
			}
			e.AddText(fmt.Sprintf("doc%d", i), body)
			i++
		}
	}
	return e
}

func TestParseMethodCanonicalError(t *testing.T) {
	_, err := ParseMethod("nope")
	if !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("err = %v; want ErrUnknownMethod", err)
	}
	for _, name := range MethodNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not enumerate method %q", err, name)
		}
	}
	if m, err := ParseMethod(""); err != nil || m != ISKR {
		t.Errorf(`ParseMethod("") = %v, %v; want ISKR, nil`, m, err)
	}
	// Every canonical name and alias round-trips, case-insensitively.
	for _, mi := range Methods() {
		for _, s := range append([]string{mi.Name, strings.ToUpper(mi.Name)}, mi.Aliases...) {
			m, err := ParseMethod(s)
			if err != nil || m != mi.Method {
				t.Errorf("ParseMethod(%q) = %v, %v; want %v", s, m, err, mi.Method)
			}
		}
	}
}

func TestMethodRegistryComplete(t *testing.T) {
	if len(Methods()) != NumMethods {
		t.Fatalf("registry has %d methods; NumMethods = %d", len(Methods()), NumMethods)
	}
	seen := map[string]bool{}
	for i, mi := range Methods() {
		if int(mi.Method) != i {
			t.Errorf("registry[%d].Method = %v", i, mi.Method)
		}
		for _, s := range append([]string{mi.Name}, mi.Aliases...) {
			if seen[s] {
				t.Errorf("method string %q registered twice", s)
			}
			seen[s] = true
		}
		if MethodLabel(i) != mi.Name {
			t.Errorf("MethodLabel(%d) = %q; registry name %q", i, MethodLabel(i), mi.Name)
		}
		if mi.Summary == "" || mi.Paradigm == "" {
			t.Errorf("method %q missing summary/paradigm", mi.Name)
		}
	}
}

func renderExpansion(exp *Expansion) string {
	var sb strings.Builder
	for _, q := range exp.Queries {
		fmt.Fprintf(&sb, "%v %x\n", q.Terms, math.Float64bits(q.F))
	}
	fmt.Fprintf(&sb, "score %x", math.Float64bits(exp.Score))
	return sb.String()
}

// TestMethodNameDispatch pins that MethodName selects the same backend as
// the corresponding Method value, for built-ins and aliases alike.
func TestMethodNameDispatch(t *testing.T) {
	e := wikiEngine(t)
	for _, mi := range Methods() {
		byMethod, err := e.Expand("java", ExpandOptions{K: 3, Method: mi.Method})
		if err != nil {
			t.Fatalf("%s by Method: %v", mi.Name, err)
		}
		for _, s := range append([]string{mi.Name}, mi.Aliases...) {
			byName, err := e.Expand("java", ExpandOptions{K: 3, MethodName: s})
			if err != nil {
				t.Fatalf("%s by MethodName %q: %v", mi.Name, s, err)
			}
			if renderExpansion(byName) != renderExpansion(byMethod) {
				t.Errorf("MethodName %q output differs from Method %v", s, mi.Method)
			}
		}
	}
	if _, err := e.Expand("java", ExpandOptions{MethodName: "nope"}); !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("unknown MethodName: err = %v; want ErrUnknownMethod", err)
	}
}

// TestNewBackendShapes pins the non-clustered backends' output contract:
// suggestions carry the original query first plus at least one expansion
// term, Clusters stays nil, and the score is the harmonic mean of the Fs.
func TestNewBackendShapes(t *testing.T) {
	e := wikiEngine(t)
	for _, m := range []Method{VectorNeighborhood, LexicalSynonym, Orthogonal} {
		exp, err := e.Expand("java", ExpandOptions{K: 3, Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(exp.Queries) == 0 {
			t.Fatalf("%v: no suggestions", m)
		}
		if exp.Clusters != nil {
			t.Errorf("%v: Clusters = %v; want nil (non-clustered paradigm)", m, exp.Clusters)
		}
		fs := make([]float64, len(exp.Queries))
		for i, q := range exp.Queries {
			if q.Terms[0] != "java" {
				t.Errorf("%v: suggestion %v lost the seed term", m, q.Terms)
			}
			if len(q.Terms) < 2 {
				t.Errorf("%v: suggestion %v has no expansion term", m, q.Terms)
			}
			if q.Cluster != i {
				t.Errorf("%v: suggestion %d has Cluster %d", m, i, q.Cluster)
			}
			fs[i] = q.F
		}
		if want := eval.Score(fs); math.Float64bits(exp.Score) != math.Float64bits(want) {
			t.Errorf("%v: score %v; want harmonic mean %v", m, exp.Score, want)
		}
	}
}

// TestCacheKeyMethodCollision proves two methods on the same query never
// share a cache entry: every built-in method (plus a custom backend) caches
// its own result, and re-requesting by any spelling of the same method hits
// that method's entry and no other's.
func TestCacheKeyMethodCollision(t *testing.T) {
	e := wikiEngine(t, WithExpansionCache(64), WithExpander(constantExpander{}))
	got := map[Method]*Expansion{}
	for _, mi := range Methods() {
		exp, err := e.Expand("java", ExpandOptions{K: 3, Method: mi.Method})
		if err != nil {
			t.Fatalf("%s: %v", mi.Name, err)
		}
		got[mi.Method] = exp
	}
	custom, err := e.Expand("java", ExpandOptions{K: 3, MethodName: "constant"})
	if err != nil {
		t.Fatal(err)
	}
	st := e.CacheStats()
	if want := int64(NumMethods + 1); st.Computations != want {
		t.Fatalf("computations = %d; want %d (one per method)", st.Computations, want)
	}
	if st.Entries != NumMethods+1 {
		t.Fatalf("cache entries = %d; want %d — methods collided", st.Entries, NumMethods+1)
	}
	// Distinct pointers per method; repeat requests (by value or by name)
	// return the cached pointer for that method only.
	seen := map[*Expansion]Method{}
	for m, exp := range got {
		if prev, dup := seen[exp]; dup {
			t.Fatalf("methods %v and %v share one cached *Expansion", prev, m)
		}
		seen[exp] = m
	}
	if _, dup := seen[custom]; dup {
		t.Fatal("custom backend shares a built-in's cached *Expansion")
	}
	for _, mi := range Methods() {
		again, err := e.Expand("java", ExpandOptions{K: 3, MethodName: mi.Name})
		if err != nil {
			t.Fatal(err)
		}
		if again != got[mi.Method] {
			t.Errorf("MethodName %q did not hit Method %v's entry", mi.Name, mi.Method)
		}
	}
	if st := e.CacheStats(); st.Computations != int64(NumMethods+1) {
		t.Errorf("re-requests recomputed: %d computations", st.Computations)
	}
}

// constantExpander is a trivial custom backend for dispatch/caching tests.
type constantExpander struct{}

func (constantExpander) Name() string { return "constant" }
func (constantExpander) Expand(in ExpandInput) (*Expansion, error) {
	return &Expansion{Original: in.Query.Terms, Score: 1}, nil
}

func TestCustomExpander(t *testing.T) {
	e := wikiEngine(t, WithExpander(constantExpander{}))
	exp, err := e.Expand("java", ExpandOptions{MethodName: "Constant"})
	if err != nil {
		t.Fatal(err)
	}
	if exp.Score != 1 || len(exp.Queries) != 0 {
		t.Fatalf("custom backend not dispatched: %+v", exp)
	}
	// Custom runs land in the shared "custom" telemetry slot.
	if n := e.Metrics().PerMethod[CustomMethodSlot].Snapshot().Count; n != 1 {
		t.Errorf("custom slot count = %d; want 1", n)
	}
	if n := e.Metrics().PerMethod[ISKR].Snapshot().Count; n != 0 {
		t.Errorf("iskr slot count = %d; want 0", n)
	}
}

// TestExpandDeterministicAcrossWorkers runs every built-in method at
// GOMAXPROCS=1 and at the test's parallelism and demands bit-identical
// expansions — worker count must never leak into results.
func TestExpandDeterministicAcrossWorkers(t *testing.T) {
	base := map[Method]string{}
	for _, mi := range Methods() {
		e := wikiEngine(t)
		exp, err := e.Expand("java", ExpandOptions{K: 3, Method: mi.Method})
		if err != nil {
			t.Fatalf("%s: %v", mi.Name, err)
		}
		base[mi.Method] = renderExpansion(exp)
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, mi := range Methods() {
		e := wikiEngine(t)
		exp, err := e.Expand("java", ExpandOptions{K: 3, Method: mi.Method})
		if err != nil {
			t.Fatalf("%s: %v", mi.Name, err)
		}
		if got := renderExpansion(exp); got != base[mi.Method] {
			t.Errorf("%s diverged at GOMAXPROCS=1:\n%s\nwant:\n%s", mi.Name, got, base[mi.Method])
		}
	}
}

// TestInterleaveAcrossBackends is the cross-paradigm property test: run
// every built-in backend on one query, interleave their suggestions
// round-robin, and check the mix — deterministic, every producing backend
// represented, per-backend order preserved — then score the mixed set's
// comprehensiveness and diversity through the user-study simulator.
func TestInterleaveAcrossBackends(t *testing.T) {
	e := wikiEngine(t)

	type tagged struct {
		method Method
		terms  []string
	}
	mix := func() []tagged {
		perMethod := make([][]tagged, NumMethods)
		for _, mi := range Methods() {
			exp, err := e.Expand("java", ExpandOptions{K: 3, Method: mi.Method})
			if err != nil {
				t.Fatalf("%s: %v", mi.Name, err)
			}
			for _, q := range exp.Queries {
				perMethod[mi.Method] = append(perMethod[mi.Method], tagged{mi.Method, q.Terms})
			}
		}
		var out []tagged
		for round := 0; ; round++ {
			advanced := false
			for m := range perMethod {
				if round < len(perMethod[m]) {
					out = append(out, perMethod[m][round])
					advanced = true
				}
			}
			if !advanced {
				return out
			}
		}
	}

	first := mix()
	if len(first) == 0 {
		t.Fatal("no suggestions from any backend")
	}
	second := mix()
	if len(second) != len(first) {
		t.Fatalf("mix not deterministic: %d vs %d suggestions", len(second), len(first))
	}
	for i := range first {
		if first[i].method != second[i].method ||
			strings.Join(first[i].terms, " ") != strings.Join(second[i].terms, " ") {
			t.Fatalf("mix not deterministic at %d: %+v vs %+v", i, first[i], second[i])
		}
	}
	produced := map[Method]int{}
	lastRank := map[Method]int{}
	for i, s := range first {
		produced[s.method]++
		lastRank[s.method] = i
	}
	for _, mi := range Methods() {
		if produced[mi.Method] == 0 {
			t.Errorf("backend %s contributed nothing to the mix", mi.Name)
		}
	}
	_ = lastRank

	// Score the mixed set like the paper's collective user study: coverage
	// of the original result neighborhood and pairwise dissimilarity of the
	// suggestions' result sets, mapped to simulated 1-5 judgments.
	// Each suggestion's result set is restricted to the neighborhood, as a
	// bitset over its positions.
	results := e.Search("java", 30)
	universe := search.ResultIDs(results)
	weights := eval.Weights{}
	for _, r := range results {
		weights[r.Doc] = r.Score
	}
	var retrieved []document.BitSet
	for _, s := range first {
		b := document.NewBitSet(len(universe))
		for _, id := range e.eng.Eval(search.NewQuery(s.terms...), search.And) {
			if di, ok := slices.BinarySearch(universe, id); ok {
				b.Add(di)
			}
		}
		retrieved = append(retrieved, b)
	}
	comp := eval.Comprehensiveness(retrieved, len(universe), weights.Dense(universe))
	div := eval.Diversity(retrieved)
	if comp <= 0 || comp > 1 {
		t.Errorf("comprehensiveness = %v; want in (0,1]", comp)
	}
	if div < 0 || div > 1 {
		t.Errorf("diversity = %v; want in [0,1]", div)
	}
	sum := userstudy.Summarize(userstudy.NewPool(1).JudgeCollective(comp, div))
	if sum.MeanScore < 1 || sum.MeanScore > 5 {
		t.Errorf("collective judgment mean = %v; want within the 1-5 scale", sum.MeanScore)
	}
}
