package qec

import (
	"bytes"
	"strings"
	"testing"
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
