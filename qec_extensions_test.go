package qec

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/document"
	"repro/internal/search"
)

func TestEngineSaveLoadRoundTrip(t *testing.T) {
	e := seedEngine(t)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != e.Len() {
		t.Fatalf("loaded %d docs, want %d", loaded.Len(), e.Len())
	}
	a, err := e.Expand("apple", ExpandOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Expand("apple", ExpandOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != b.Score {
		t.Errorf("scores differ after round-trip: %v vs %v", a.Score, b.Score)
	}
}

func TestLoadEngineRejectsGarbage(t *testing.T) {
	if _, err := LoadEngine(strings.NewReader("garbage")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestEngineExpandInterleaveAtLeastAsGood(t *testing.T) {
	base, err := seedEngine(t).Expand("apple", ExpandOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := seedEngine(t).Expand("apple", ExpandOptions{K: 2, Interleave: 4})
	if err != nil {
		t.Fatal(err)
	}
	if inter.Score < base.Score-1e-9 {
		t.Errorf("interleaving worsened score: %v -> %v", base.Score, inter.Score)
	}
}

func TestEngineExpandORSemantics(t *testing.T) {
	e := seedEngine(t)
	exp, err := e.Expand("apple", ExpandOptions{K: 2, Method: ORExpansion})
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Queries) != 2 {
		t.Fatalf("%d queries", len(exp.Queries))
	}
	for _, q := range exp.Queries {
		// OR queries stand alone: they must not echo the seed term, and
		// they must achieve positive F.
		for _, term := range q.Terms {
			if term == "apple" {
				t.Errorf("OR query %v echoes the seed term", q.Terms)
			}
		}
		if q.F <= 0 {
			t.Errorf("OR query %v has F = %v", q.Terms, q.F)
		}
	}
	if ORExpansion.String() != "OR-ISKR" {
		t.Error("Method name")
	}
}

// TestInterleaveReportsMeasuredClusters pins what an interleaved expansion
// reports: the clusters its queries were generated for. Interleaving
// re-assigns results between rounds, so each query's precision and recall
// must re-measure exactly against the returned Clusters — not against the
// initial k-means clusters — on every Table 1 query at k = 2, 3 and 4.
func TestInterleaveReportsMeasuredClusters(t *testing.T) {
	for _, d := range []*dataset.Dataset{dataset.Wikipedia(2012, 4), dataset.Shopping(2011, 1)} {
		e := NewEngineFromIndex(d.Index)
		for _, tq := range d.Queries {
			for k := 2; k <= 4; k++ {
				exp, err := e.Expand(tq.Raw, ExpandOptions{K: k, Interleave: 4, Unweighted: true})
				if err != nil {
					t.Fatalf("%s %s k=%d: %v", d.Name, tq.ID, k, err)
				}
				if len(exp.Queries) != len(exp.Clusters) {
					t.Fatalf("%s %s k=%d: %d queries for %d clusters",
						d.Name, tq.ID, k, len(exp.Queries), len(exp.Clusters))
				}
				// The clusters partition the universe; R(q) is restricted to it.
				inUniverse := map[document.DocID]int{}
				for ci, ids := range exp.Clusters {
					for _, id := range ids {
						inUniverse[id] = ci
					}
				}
				for i, q := range exp.Queries {
					inter, retrieved := 0, 0
					for _, id := range e.eng.Eval(search.NewQuery(q.Terms...), search.And) {
						if ci, ok := inUniverse[id]; ok {
							retrieved++
							if ci == i {
								inter++
							}
						}
					}
					p, r := 0.0, 0.0
					if retrieved > 0 {
						p = float64(inter) / float64(retrieved)
						r = float64(inter) / float64(len(exp.Clusters[i]))
					}
					if q.Precision != p || q.Recall != r {
						t.Errorf("%s %s k=%d cluster %d %v: reported P=%.3f R=%.3f, re-measured P=%.3f R=%.3f",
							d.Name, tq.ID, k, i, q.Terms, q.Precision, q.Recall, p, r)
					}
				}
			}
		}
	}
}
