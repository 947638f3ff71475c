package index_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/index"
)

var builtIndex *index.Index

// BenchmarkIndexBuildWikipedia16 times one index build of the Wikipedia
// corpus at scale 16 (5248 documents), the corpus qec-serve indexes for the
// perfbench search workload, with the analyzer it uses.
func BenchmarkIndexBuildWikipedia16(b *testing.B) {
	corpus := dataset.Wikipedia(2012, 16).Corpus
	a := analysis.Simple()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builtIndex = index.Build(corpus, a)
	}
}
