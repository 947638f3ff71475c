package search

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/document"
	"repro/internal/index"
)

// mapParseQuery is ParseQuery de-duplicating through a map: the reference
// the TermSet version must match. A field:value token is keyed by its
// lowercased form, the form it is kept in, so case variants of one
// composite collapse to the first.
func mapParseQuery(idx *index.Index, raw string) Query {
	var terms []string
	seen := make(map[string]struct{})
	for _, field := range strings.Fields(raw) {
		if strings.Contains(field, ":") {
			field = strings.ToLower(field)
			if _, ok := seen[field]; !ok {
				seen[field] = struct{}{}
				terms = append(terms, field)
			}
			continue
		}
		for _, term := range idx.Analyzer().UniqueTerms(field) {
			if _, ok := seen[term]; !ok {
				seen[term] = struct{}{}
				terms = append(terms, term)
			}
		}
	}
	return Query{Terms: terms}
}

// FuzzParseQueryMatchesMapReference checks that ParseQuery yields the map
// reference's terms in the same order, duplicates and field:value tokens
// included, below and above the linear scan's size.
func FuzzParseQueryMatchesMapReference(f *testing.F) {
	for _, seed := range []string{
		"",
		"apple apple fruit",
		"Apple APPLE apple-pie apple.pie",
		"brand:canon Brand:Canon brand:canon printer",
		"a:b a b a:b b:a c d e f g h i j a:b c",
		"one two three four five six seven eight nine one nine ten two",
		"x:1 x:2 x:3 x:4 x:5 x:6 x:7 x:8 x:9 x:1 X:1",
	} {
		f.Add(seed)
	}
	c := document.NewCorpus()
	c.AddText("", "apple fruit orchard")
	indexes := []*index.Index{
		index.Build(c, analysis.Standard()),
		index.Build(c, analysis.Simple()),
	}
	f.Fuzz(func(t *testing.T, raw string) {
		for _, idx := range indexes {
			got, want := ParseQuery(idx, raw).Terms, mapParseQuery(idx, raw).Terms
			if !slices.Equal(got, want) {
				t.Fatalf("ParseQuery(%q) = %q, want %q", raw, got, want)
			}
		}
	})
}
