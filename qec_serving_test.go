package qec

// Tests for the serving-path additions: concurrent-safe Build, the expansion
// cache, and request coalescing at the Engine level. The HTTP layer on top is
// tested in internal/server.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/search"
)

// ambiguousEngine builds a small corpus where "apple" has two senses, enough
// for Expand to produce distinct per-cluster queries.
func ambiguousEngine(t testing.TB, opts ...Option) *Engine {
	t.Helper()
	e := NewEngine(append([]Option{WithSeed(7)}, opts...)...)
	fruit := []string{"orchard harvest", "pie cider", "tree juice", "crop farm"}
	tech := []string{"iphone launch", "store retail", "laptop software", "stock shares"}
	for i := 0; i < 4; i++ {
		e.AddText("", "apple fruit "+fruit[i])
		e.AddText("", "apple company "+tech[i])
	}
	return e
}

func TestBuildConcurrent(t *testing.T) {
	e := ambiguousEngine(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Build()
			if n := len(e.Search("apple", 0)); n != 8 {
				t.Errorf("Search after concurrent Build: %d results, want 8", n)
			}
		}()
	}
	wg.Wait()
}

func TestBuildRearmsAfterMutation(t *testing.T) {
	e := ambiguousEngine(t)
	e.Build()
	before := len(e.Search("apple", 0))
	e.AddText("", "apple banana smoothie")
	if got := len(e.Search("apple", 0)); got != before+1 {
		t.Fatalf("Search after AddText = %d results, want %d (Build did not re-arm)", got, before+1)
	}
}

func TestExpansionCacheHitReturnsSharedResult(t *testing.T) {
	e := ambiguousEngine(t, WithExpansionCache(8))
	opts := ExpandOptions{K: 2}
	first, err := e.Expand("apple", opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Expand("apple", opts)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("second Expand should return the cached *Expansion")
	}
	// Normalization: spacing and case differences share the entry.
	third, err := e.Expand("  APPLE  ", opts)
	if err != nil {
		t.Fatal(err)
	}
	if third != first {
		t.Fatal("normalized query variants should share a cache entry")
	}
	st := e.CacheStats()
	if st.Computations != 1 {
		t.Fatalf("computations = %d; want 1", st.Computations)
	}
	if st.Hits < 2 || st.HitRate() <= 0 {
		t.Fatalf("hits = %d, rate = %v; want >= 2 hits", st.Hits, st.HitRate())
	}
	// Different options must not share an entry.
	if _, err := e.Expand("apple", ExpandOptions{K: 2, Unweighted: true}); err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Computations != 2 {
		t.Fatalf("computations after option change = %d; want 2", st.Computations)
	}
}

// TestExpandKeyMatchesFormat pins the appended cache key to the format it
// was first written with, so a key never changes with how it is built.
func TestExpandKeyMatchesFormat(t *testing.T) {
	e := ambiguousEngine(t)
	e.Build()
	for _, raw := range []string{"apple", "  APPLE fruit apple ", "brand:Canon apple", ""} {
		for _, opts := range []ExpandOptions{
			{},
			{K: 4, TopK: 30, Method: PEBC, Unweighted: true, Interleave: 2, Quality: QualityServing},
			{K: -1, TopK: 1 << 40, Method: VectorNeighborhood, Quality: QualityMinimal},
		} {
			var sb strings.Builder
			for _, term := range search.ParseQuery(e.idx, raw).Terms {
				sb.WriteString(term)
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "|k=%d|top=%d|m=%s|uw=%t|il=%d|q=%d",
				opts.K, opts.TopK, e.methodLeg(opts), opts.Unweighted, opts.Interleave, opts.Quality)
			if got, want := e.expandKey(raw, opts), sb.String(); got != want {
				t.Errorf("expandKey(%q, %+v) = %q, want %q", raw, opts, got, want)
			}
		}
	}
}

func TestExpansionCacheInvalidatedByMutation(t *testing.T) {
	e := ambiguousEngine(t, WithExpansionCache(8))
	first, err := e.Expand("apple", ExpandOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.AddText("", "apple cider vinegar")
	second, err := e.Expand("apple", ExpandOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if first == second {
		t.Fatal("mutation must invalidate cached expansions")
	}
	if st := e.CacheStats(); st.Computations != 2 {
		t.Fatalf("computations = %d; want 2 (recompute after mutation)", st.Computations)
	}
}

func TestExpandCoalescingConcurrent(t *testing.T) {
	e := ambiguousEngine(t, WithExpansionCache(8))
	e.Build()
	const callers = 32
	var wg sync.WaitGroup
	results := make([]*Expansion, callers)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			exp, err := e.Expand("apple", ExpandOptions{K: 2})
			if err != nil {
				t.Errorf("Expand: %v", err)
				return
			}
			results[i] = exp
		}(i)
	}
	close(start)
	wg.Wait()
	if st := e.CacheStats(); st.Computations != 1 {
		t.Fatalf("computations = %d; want exactly 1 across %d concurrent callers", st.Computations, callers)
	}
	for i, r := range results {
		if r == nil || r != results[0] {
			t.Fatalf("caller %d got a different result", i)
		}
	}
}

func TestExpandErrorSentinels(t *testing.T) {
	e := ambiguousEngine(t)
	if _, err := e.Expand("zzznope", ExpandOptions{}); !errors.Is(err, ErrNoResults) {
		t.Fatalf("err = %v; want ErrNoResults", err)
	}
	// "a" is a stopword-free single letter the Simple analyzer drops via its
	// minimum-length filter, so the query parses to zero terms.
	if _, err := e.Expand("a", ExpandOptions{}); !errors.Is(err, ErrEmptyQuery) {
		t.Fatalf("err = %v; want ErrEmptyQuery", err)
	}
}

func TestExpandErrorsNotCached(t *testing.T) {
	e := ambiguousEngine(t, WithExpansionCache(8))
	for i := 0; i < 2; i++ {
		if _, err := e.Expand("zzznope", ExpandOptions{K: 2}); err == nil {
			t.Fatal("want error for no-result query")
		}
	}
	st := e.CacheStats()
	if st.Entries != 0 {
		t.Fatalf("entries = %d; errors must not be cached", st.Entries)
	}
	if st.Computations != 2 {
		t.Fatalf("computations = %d; want 2 (error path recomputes)", st.Computations)
	}
}

func TestCacheStatsZeroWithoutCache(t *testing.T) {
	e := ambiguousEngine(t)
	if _, err := e.Expand("apple", ExpandOptions{K: 2}); err != nil {
		t.Fatal(err)
	}
	st := e.CacheStats()
	if st.Capacity != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("uncached engine should report empty cache stats, got %+v", st)
	}
	if st.Computations != 1 {
		t.Fatalf("computations = %d; want 1 (counted even without cache)", st.Computations)
	}
}

// TestExpandQualityModesDeterministic is the engine-level serving-vs-exact
// determinism contract: for a fixed seed, each quality mode produces an
// identical Expansion on every run, and the two modes are cached under
// distinct keys (an explicit mode never serves the other mode's entry).
func TestExpandQualityModesDeterministic(t *testing.T) {
	run := func(q Quality) *Expansion {
		e := ambiguousEngine(t)
		exp, err := e.Expand("apple", ExpandOptions{K: 2, Quality: q})
		if err != nil {
			t.Fatal(err)
		}
		return exp
	}
	sameExpansion := func(label string, a, b *Expansion) {
		t.Helper()
		if a.Score != b.Score || len(a.Queries) != len(b.Queries) {
			t.Fatalf("%s: score %v vs %v, %d vs %d queries",
				label, a.Score, b.Score, len(a.Queries), len(b.Queries))
		}
		for i := range a.Queries {
			aq, bq := a.Queries[i], b.Queries[i]
			if aq.F != bq.F || len(aq.Terms) != len(bq.Terms) {
				t.Fatalf("%s: query %d diverges (%v vs %v)", label, i, aq, bq)
			}
			for j := range aq.Terms {
				if aq.Terms[j] != bq.Terms[j] {
					t.Fatalf("%s: query %d term %d: %q vs %q",
						label, i, j, aq.Terms[j], bq.Terms[j])
				}
			}
		}
		for i := range a.Clusters {
			if len(a.Clusters[i]) != len(b.Clusters[i]) {
				t.Fatalf("%s: cluster %d size diverges", label, i)
			}
			for j := range a.Clusters[i] {
				if a.Clusters[i][j] != b.Clusters[i][j] {
					t.Fatalf("%s: cluster %d member %d diverges", label, i, j)
				}
			}
		}
	}
	for _, q := range []Quality{QualityExact, QualityServing, QualityMinimal} {
		ref := run(q)
		for i := 0; i < 2; i++ {
			sameExpansion(q.String(), ref, run(q))
		}
	}

	// Distinct cache keys per mode: with a cache attached, requesting the
	// three modes back to back computes three times (no cross-mode hit).
	e := ambiguousEngine(t, WithExpansionCache(8))
	for _, q := range []Quality{QualityExact, QualityServing, QualityMinimal} {
		if _, err := e.Expand("apple", ExpandOptions{K: 2, Quality: q}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.CacheStats().Computations; got != 3 {
		t.Fatalf("computations = %d; want 3 (quality must be part of the cache key)", got)
	}
}

// TestExpandRejectsUndefinedQuality: a Quality outside the defined levels is
// an error, not a silent exact run, and it reaches neither the cache nor
// the per-quality metrics (whose slot is int(q)).
func TestExpandRejectsUndefinedQuality(t *testing.T) {
	e := ambiguousEngine(t, WithExpansionCache(8))
	for _, q := range []Quality{-1, QualityMinimal + 1, 5} {
		opts := ExpandOptions{K: 2, Quality: q}
		if _, err := e.Expand("apple", opts); err == nil {
			t.Errorf("Expand with %v: no error", q)
		}
		if _, _, err := e.ExpandExplained(context.Background(), "apple", opts, nil); err == nil {
			t.Errorf("ExpandExplained with %v: no error", q)
		}
	}
	if st := e.CacheStats(); st.Entries != 0 {
		t.Errorf("cache entries = %d; want 0", st.Entries)
	}
	for i := range e.Metrics().PerQuality {
		if n := e.Metrics().PerQuality[i].Snapshot().Count; n != 0 {
			t.Errorf("quality slot %d recorded %d runs", i, n)
		}
	}
}

// TestParseQuality pins the wire names accepted for the quality knob.
func TestParseQuality(t *testing.T) {
	cases := []struct {
		in   string
		want Quality
		ok   bool
	}{
		{"", QualityExact, true},
		{"exact", QualityExact, true},
		{"  Exact ", QualityExact, true},
		{"serving", QualityServing, true},
		{"SERVING", QualityServing, true},
		{"minimal", QualityExact, false}, // reached only through the ladder
		{"fast", QualityExact, false},
	}
	for _, tc := range cases {
		got, ok := ParseQuality(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseQuality(%q) = %v,%v; want %v,%v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}
