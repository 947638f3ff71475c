package qec

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// TestExpandExplainedBitIdentical pins the EXPLAIN contract: collecting the
// decision trail must not change a single bit of the expansion output, across
// quality tiers, methods and the interleave path.
func TestExpandExplainedBitIdentical(t *testing.T) {
	optGrid := []ExpandOptions{
		{K: 2},
		{K: 2, Quality: QualityServing},
		{K: 2, Method: PEBC},
		{K: 2, Method: DeltaF},
		{K: 2, Method: ORExpansion},
		{K: 2, Unweighted: true},
		{K: 2},
		{K: 2, Interleave: 2},
	}
	for _, opts := range optGrid {
		plain := seedEngine(t)
		explained := seedEngine(t)
		want, err := plain.Expand("apple", opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		got, ex, err := explained.ExpandExplained(context.Background(), "apple", opts, nil)
		if err != nil {
			t.Fatalf("%+v explained: %v", opts, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%+v: explained expansion differs from plain\nplain:     %+v\nexplained: %+v", opts, want, got)
		}
		if ex == nil {
			t.Fatalf("%+v: nil explain", opts)
		}
		// The explain must also run identically to a cached second call.
		again, err := explained.Expand("apple", opts)
		if err != nil {
			t.Fatalf("%+v repeat: %v", opts, err)
		}
		if !reflect.DeepEqual(want, again) {
			t.Errorf("%+v: cached result diverged after explain", opts)
		}
	}
}

// TestExpandExplainedContent checks the trail actually carries the decision
// detail the endpoint promises.
func TestExpandExplainedContent(t *testing.T) {
	e := seedEngine(t)
	exp, ex, err := e.ExpandExplained(context.Background(), "apple", ExpandOptions{K: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ex.Query, []string{"apple"}; !reflect.DeepEqual(got, want) {
		t.Errorf("query = %v, want %v", got, want)
	}
	if ex.Method == "" || ex.Quality == "" {
		t.Errorf("method/quality labels empty: %q %q", ex.Method, ex.Quality)
	}
	if ex.Results <= 0 {
		t.Errorf("results = %d, want > 0", ex.Results)
	}
	if ex.KMeans == nil {
		t.Fatal("no kmeans leg")
	}
	if len(ex.KMeans.Restarts) == 0 {
		t.Error("no restart detail")
	}
	won := 0
	for _, r := range ex.KMeans.Restarts {
		if r.Won {
			won++
			if r.Abandoned {
				t.Error("winning restart marked abandoned")
			}
			if r.Distortion != ex.KMeans.Distortion {
				t.Errorf("winner distortion %v != clustering distortion %v",
					r.Distortion, ex.KMeans.Distortion)
			}
		}
	}
	if won != 1 {
		t.Errorf("won restarts = %d, want exactly 1", won)
	}
	if len(ex.Clusters) != len(exp.Queries) {
		t.Fatalf("clusters = %d, queries = %d", len(ex.Clusters), len(exp.Queries))
	}
	for i, cx := range ex.Clusters {
		if cx.Cluster != i {
			t.Errorf("cluster %d: ordinal %d", i, cx.Cluster)
		}
		if cx.Size <= 0 {
			t.Errorf("cluster %d: size %d", i, cx.Size)
		}
		if !reflect.DeepEqual(cx.Label, exp.Queries[i].Terms) {
			t.Errorf("cluster %d: label %v != query %v", i, cx.Label, exp.Queries[i].Terms)
		}
		if len(cx.Pool) == 0 {
			t.Errorf("cluster %d: empty candidate pool", i)
		}
		// Picked keywords must align with the expanded query's extra terms.
		extra := 0
		for _, term := range exp.Queries[i].Terms {
			if term != "apple" {
				extra++
			}
		}
		if len(cx.Picked) != extra {
			t.Errorf("cluster %d: picked %d, query has %d extra terms", i, len(cx.Picked), extra)
		}
		for _, p := range cx.Picked {
			found := false
			for _, term := range exp.Queries[i].Terms {
				if term == p.Keyword {
					found = true
				}
			}
			if !found {
				t.Errorf("cluster %d: picked %q not in query %v", i, p.Keyword, exp.Queries[i].Terms)
			}
		}
		for _, r := range cx.Rejected {
			for _, term := range exp.Queries[i].Terms {
				if term == r.Keyword {
					t.Errorf("cluster %d: rejected %q is in the query", i, r.Keyword)
				}
			}
		}
	}
	// The wire shape must survive JSON round-tripping (no Inf/NaN leaks).
	raw, err := json.Marshal(ex)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Explain
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
}

// TestExpandExplainedPEBCSamples checks the PEBC leg records its
// partial-elimination probes.
func TestExpandExplainedPEBCSamples(t *testing.T) {
	e := seedEngine(t)
	_, ex, err := e.ExpandExplained(context.Background(), "apple", ExpandOptions{K: 2, Method: PEBC}, nil)
	if err != nil {
		t.Fatal(err)
	}
	samples := 0
	for _, cx := range ex.Clusters {
		samples += len(cx.Samples)
		for _, s := range cx.Samples {
			if s.X < 0 || s.X > 100 {
				t.Errorf("sample x = %v out of range", s.X)
			}
		}
	}
	if samples == 0 {
		t.Error("no PEBC samples recorded")
	}
}

// TestExpandExplainedInterleaveNote checks the interleave path degrades
// gracefully: cluster summaries without solver trails, plus a note.
func TestExpandExplainedInterleaveNote(t *testing.T) {
	e := seedEngine(t)
	exp, ex, err := e.ExpandExplained(context.Background(), "apple", ExpandOptions{K: 2, Interleave: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Notes) == 0 {
		t.Error("interleave run carries no explanatory note")
	}
	if len(ex.Clusters) != len(exp.Queries) {
		t.Errorf("clusters = %d, queries = %d", len(ex.Clusters), len(exp.Queries))
	}
	for i, cx := range ex.Clusters {
		if len(cx.Pool) != 0 || len(cx.Steps) != 0 {
			t.Errorf("cluster %d: interleave run has solver trail", i)
		}
		if !reflect.DeepEqual(cx.Label, exp.Queries[i].Terms) {
			t.Errorf("cluster %d: label %v != query %v", i, cx.Label, exp.Queries[i].Terms)
		}
	}
}

func TestFiniteValue(t *testing.T) {
	if v, inf := finiteValue(2.5); v != 2.5 || inf {
		t.Errorf("finiteValue(2.5) = %v, %v", v, inf)
	}
	if v, inf := finiteValue(math.Inf(1)); v != 0 || !inf {
		t.Errorf("finiteValue(+Inf) = %v, %v", v, inf)
	}
	if v, inf := finiteValue(maxFiniteValue); v != maxFiniteValue || inf {
		t.Errorf("finiteValue(max) = %v, %v", v, inf)
	}
}
