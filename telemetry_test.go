package qec

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestExpandTracedBitIdentical pins the observability contract: attaching a
// trace (and recording engine metrics) must not change a single bit of the
// expansion output, across quality tiers, methods and the interleave path.
func TestExpandTracedBitIdentical(t *testing.T) {
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
		traced := seedEngine(t)
		want, err := plain.Expand("apple", opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		tr := obs.GetTrace()
		got, err := traced.ExpandTraced(context.Background(), "apple", opts, tr)
		if err != nil {
			t.Fatalf("%+v traced: %v", opts, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%+v: traced expansion differs from plain:\nplain:  %+v\ntraced: %+v",
				opts, want, got)
		}
		obs.PutTrace(tr)
	}
}

// TestExpandTracedRecordsStages checks that a traced cold expansion carries
// the stage spans and k-means bookkeeping the serving layer logs.
func TestExpandTracedRecordsStages(t *testing.T) {
	e := seedEngine(t)
	tr := obs.GetTrace()
	defer obs.PutTrace(tr)
	if _, err := e.ExpandTraced(context.Background(), "apple", ExpandOptions{K: 2}, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Cache != obs.CacheComputed {
		t.Fatalf("cache state = %v; want computed", tr.Cache)
	}
	for _, s := range []obs.Stage{obs.StageParse, obs.StageSearch, obs.StageProblem,
		obs.StageCluster, obs.StageSolve, obs.StageAssemble} {
		if tr.Durations[s] <= 0 {
			t.Errorf("stage %v recorded no time", s)
		}
	}
	if tr.KMeansRestarts == 0 || tr.KMeansIterations == 0 {
		t.Fatalf("k-means bookkeeping missing: %+v", tr)
	}
}

// TestExpandTracedCacheStates drives the cache dispositions a trace reports.
func TestExpandTracedCacheStates(t *testing.T) {
	eng := NewEngine(WithSeed(7), WithExpansionCache(8))
	for _, doc := range []string{
		"apple fruit orchard juice harvest tree",
		"apple iphone store launch event keynote",
		"apple computer mac laptop software store",
		"apple fruit pie bake cider orchard",
	} {
		eng.AddText("", doc)
	}

	tr := obs.GetTrace()
	defer obs.PutTrace(tr)
	if _, err := eng.ExpandTraced(context.Background(), "apple", ExpandOptions{K: 2}, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Cache != obs.CacheComputed {
		t.Fatalf("first call cache = %v; want computed", tr.Cache)
	}
	tr.Reset()
	if _, err := eng.ExpandTraced(context.Background(), "apple", ExpandOptions{K: 2}, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Cache != obs.CacheHit {
		t.Fatalf("second call cache = %v; want hit", tr.Cache)
	}
	if tr.Total() != 0 {
		t.Fatalf("cache hit should record no stage time, got %v", tr.Total())
	}
}

// TestEngineMetricsRecorded checks the engine-level aggregates: per-quality
// and per-method latency histograms and the k-means counters move exactly
// with the pipeline runs that happened.
func TestEngineMetricsRecorded(t *testing.T) {
	e := seedEngine(t)
	if _, err := e.Expand("apple", ExpandOptions{K: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Expand("apple", ExpandOptions{K: 2, Quality: QualityServing, Method: PEBC}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Expand("apple", ExpandOptions{K: 2, Quality: QualityMinimal}); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	for _, q := range []Quality{QualityExact, QualityServing, QualityMinimal} {
		if got := m.PerQuality[q].Snapshot().Count; got != 1 {
			t.Fatalf("%v runs = %d; want 1", q, got)
		}
	}
	if got := m.PerMethod[int(PEBC)].Snapshot().Count; got != 1 {
		t.Fatalf("pebc runs = %d; want 1", got)
	}
	if m.KMeansRestarts.Load() == 0 || m.KMeansIterations.Load() == 0 {
		t.Fatal("k-means counters did not move")
	}
	for s := 0; s < obs.NumStages; s++ {
		if m.PerStage[s].Snapshot().Count == 0 {
			t.Errorf("stage %v histogram empty", obs.Stage(s))
		}
	}
}

func TestQualityAndMethodLabels(t *testing.T) {
	// A level's metrics slot is int(q) and its label q.String().
	for i, w := range [NumQualities]string{"exact", "serving", "minimal"} {
		if Quality(i).String() != w {
			t.Fatalf("quality slot %d labelled %q, want %q", i, Quality(i), w)
		}
	}
	want := []string{"iskr", "pebc", "deltaf", "or", "vector", "lexical", "orthogonal", "custom"}
	for i, w := range want {
		if MethodLabel(i) != w {
			t.Fatalf("MethodLabel(%d) = %q; want %q", i, MethodLabel(i), w)
		}
	}
}
