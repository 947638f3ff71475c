// Package dataset synthesizes the two evaluation corpora of Section 5.1.
//
// The paper used (a) a crawl of circuitcity.com (proprietary; the site no
// longer exists) and (b) the INEX 2009 Wikipedia XML collection (a licensed
// 13GB dump). Neither is available, so this package generates synthetic
// equivalents that preserve the structural properties the algorithms are
// sensitive to:
//
//   - Shopping: structured products whose categories have largely disjoint
//     feature vocabularies, so category-shaped clusters admit near-perfect
//     expanded queries (the reason Figure 5a shows many perfect scores).
//   - Wikipedia: prose documents over ambiguous terms, where each sense has
//     its own topical vocabulary but senses share ambient words, and
//     high-frequency words do not necessarily co-occur (the property that
//     degrades CS and Data Clouds in Figure 5b).
//
// Both generators are deterministic per seed. The query sets are Table 1's,
// and a synthetic query log provides the "Google" baseline's suggestions.
package dataset

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/document"
	"repro/internal/index"
)

// TestQuery is one entry of Table 1.
type TestQuery struct {
	// ID is the paper's query identifier (QS1..QS10, QW1..QW10).
	ID string
	// Raw is the query text as issued by the user.
	Raw string
}

// Dataset bundles a generated corpus with its index, Table 1 queries,
// ground-truth labels and the synthetic query log.
type Dataset struct {
	Name    string
	Corpus  *document.Corpus
	Index   *index.Index
	Queries []TestQuery
	// Labels maps each document to its ground-truth category or sense,
	// used to sanity-check clustering and to drive the user-study
	// simulator.
	Labels map[document.DocID]string
	// Log is the synthetic query log for the Google baseline.
	Log []baseline.LogEntry
}

// QueryByID returns the test query with the given ID.
func (d *Dataset) QueryByID(id string) (TestQuery, bool) {
	for _, q := range d.Queries {
		if q.ID == id {
			return q, true
		}
	}
	return TestQuery{}, false
}

// pick returns a deterministic pseudo-random element of xs.
func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

// writeWords draws n words from vocab with replacement and appends each to
// sb after a space.
func writeWords(sb *strings.Builder, rng *rand.Rand, vocab []string, n int) {
	for i := 0; i < n; i++ {
		sb.WriteByte(' ')
		sb.WriteString(vocab[rng.Intn(len(vocab))])
	}
}

// model builds product model names like "px-1500".
func model(rng *rand.Rand, prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, 100+rng.Intn(9000))
}

// nameOnsets and nameNuclei are the syllables of writeProperName's
// pronounceable names ("velor", "kamin").
var nameOnsets = []string{"b", "d", "f", "g", "h", "k", "l", "m", "n", "p",
	"r", "s", "t", "v", "w"}
var nameNuclei = []string{"a", "e", "i", "o", "u", "ar", "el", "in", "or", "an"}

// writeProperName appends a space and a synthesized proper name to sb.
func writeProperName(sb *strings.Builder, rng *rand.Rand) {
	sb.WriteByte(' ')
	n := 2 + rng.Intn(2)
	for i := 0; i < n; i++ {
		sb.WriteString(pick(rng, nameOnsets))
		sb.WriteString(pick(rng, nameNuclei))
	}
}

// buildIndex finalizes a dataset: indexes the corpus with the given
// analyzer.
func (d *Dataset) buildIndex(a *analysis.Analyzer) {
	d.Index = index.Build(d.Corpus, a)
}
