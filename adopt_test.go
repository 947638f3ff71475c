package qec

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/document"
	"repro/internal/index"
)

// reAddedEngine builds the reference engine the long way: every document
// added to an empty engine, then its own Build.
func reAddedEngine(docs []*document.Document, opts ...Option) *Engine {
	e := NewEngine(opts...)
	for _, doc := range docs {
		if doc.Kind == document.Structured {
			e.AddProduct(doc.Title, doc.Triplets)
		} else {
			e.AddText(doc.Title, doc.Body)
		}
	}
	e.Build()
	return e
}

// adoptedEngine is qec-serve's set-up: the engine adopts the dataset's own
// index, or its corpus with one stemming build.
func adoptedEngine(d *dataset.Dataset, stemming bool, opts ...Option) *Engine {
	idx := d.Index
	if stemming {
		idx = index.Build(d.Corpus, analysis.Standard())
	}
	return NewEngineFromIndex(idx, opts...)
}

// engineDiff reports the first difference between two engines: their Save
// bytes, then Search and Expand (ISKR and PEBC) on every query.
func engineDiff(a, b *Engine, queries []dataset.TestQuery) error {
	var sa, sb bytes.Buffer
	if err := a.Save(&sa); err != nil {
		return err
	}
	if err := b.Save(&sb); err != nil {
		return err
	}
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		return fmt.Errorf("Save bytes differ (%d vs %d bytes)", sa.Len(), sb.Len())
	}
	for _, q := range queries {
		if ra, rb := a.Search(q.Raw, 0), b.Search(q.Raw, 0); !reflect.DeepEqual(ra, rb) {
			return fmt.Errorf("%s: Search differs", q.ID)
		}
		for _, m := range []Method{ISKR, PEBC} {
			opts := ExpandOptions{K: 3, Method: m}
			xa, err := a.Expand(q.Raw, opts)
			if err != nil {
				return fmt.Errorf("%s %s: %w", q.ID, m, err)
			}
			if xb, err := b.Expand(q.Raw, opts); err != nil || !reflect.DeepEqual(xa, xb) {
				return fmt.Errorf("%s %s: Expand differs (%v)", q.ID, m, err)
			}
		}
	}
	return nil
}

// TestAdoptedEngineMatchesReAddPath pins that adopting a dataset's index (or
// its corpus, with stemming) serves exactly what re-adding every document
// and building again served: the same snapshot bytes, search results and
// expansions. It also checks that the comparison notices a dropped
// document and a swapped analyzer.
func TestAdoptedEngineMatchesReAddPath(t *testing.T) {
	for _, d := range []*dataset.Dataset{dataset.Wikipedia(2012, 4), dataset.Shopping(2011, 1)} {
		for _, stemming := range []bool{false, true} {
			opts := []Option{WithSeed(2011)}
			if stemming {
				opts = append(opts, WithStemming())
			}
			name := fmt.Sprintf("%s/stemming=%t", d.Name, stemming)
			docs := d.Corpus.Docs()
			adopted := adoptedEngine(d, stemming, opts...)
			if err := engineDiff(adopted, reAddedEngine(docs, opts...), d.Queries); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if engineDiff(adopted, reAddedEngine(docs[:len(docs)-1], opts...), d.Queries) == nil {
				t.Errorf("%s: a dropped document went unnoticed", name)
			}
			if engineDiff(adopted, adoptedEngine(d, !stemming, opts...), d.Queries) == nil {
				t.Errorf("%s: a swapped analyzer went unnoticed", name)
			}
		}
	}
}

// TestAdoptedEngineAddTextRebuilds pins the ownership contract: AddText on
// an adopted engine appends to the adopted corpus and re-arms Build, which
// re-indexes with the adopted index's analyzer (here the stemming one, which
// the options do not select), so the new document is searchable by its stem.
func TestAdoptedEngineAddTextRebuilds(t *testing.T) {
	d := dataset.Shopping(2011, 1)
	e := NewEngineFromIndex(index.Build(d.Corpus, analysis.Standard()))
	n := e.Len()
	id := e.AddText("", "zyzzyvas")
	if e.Len() != n+1 || d.Corpus.Len() != n+1 {
		t.Fatalf("after AddText: engine %d docs, corpus %d, want %d", e.Len(), d.Corpus.Len(), n+1)
	}
	if got := e.Search("zyzzyva", 0); len(got) != 1 || got[0].Doc != id {
		t.Fatalf("Search(zyzzyva) = %v, want doc %d", got, id)
	}
}
