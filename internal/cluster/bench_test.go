package cluster

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/analysis"
	"repro/internal/document"
	"repro/internal/index"
)

// benchCorpus builds a deterministic multi-topic corpus of n documents with
// ~40 distinct terms each, the shape of a paper-scale result set.
func benchCorpus(n int) (*index.Index, []document.DocID) {
	rng := rand.New(rand.NewSource(7))
	vocab := make([]string, 400)
	for i := range vocab {
		vocab[i] = "term" + strconv.Itoa(i)
	}
	c := document.NewCorpus()
	ids := make([]document.DocID, n)
	for i := 0; i < n; i++ {
		topic := (i % 4) * 100 // four disjoint-ish vocab bands
		text := ""
		for j := 0; j < 40; j++ {
			text += " " + vocab[topic+rng.Intn(100)]
		}
		ids[i] = c.AddText("", text)
	}
	return index.Build(c, analysis.Simple()), ids
}

// BenchmarkVectorDot measures one merge-join dot product between two ~40-term
// interned vectors (the innermost operation of the assignment loop).
func BenchmarkVectorDot(b *testing.B) {
	idx, ids := benchCorpus(64)
	dict := DictForDocs(idx, ids)
	v := dict.VectorFromDoc(idx, ids[0])
	u := dict.VectorFromDoc(idx, ids[1])
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += v.Dot(u)
	}
	_ = s
}

// BenchmarkVectorCosine includes the (cached) norms — the full per-pair cost
// k-means pays.
func BenchmarkVectorCosine(b *testing.B) {
	idx, ids := benchCorpus(64)
	dict := DictForDocs(idx, ids)
	v := dict.VectorFromDoc(idx, ids[0])
	u := dict.VectorFromDoc(idx, ids[1])
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += v.Cosine(u)
	}
	_ = s
}

// BenchmarkVectorFromDoc measures interned vector construction from the
// index (aligned term/freq walk, no posting-list binary searches).
func BenchmarkVectorFromDoc(b *testing.B) {
	idx, ids := benchCorpus(64)
	dict := DictForDocs(idx, ids)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dict.VectorFromDoc(idx, ids[i%len(ids)])
	}
}

// benchAssignState seeds one k-means run over the bench corpus, in its local
// term space as KMeansVecs runs it, so the assignment step can be measured
// in isolation.
func benchAssignState(b *testing.B, n, k int) *runState {
	b.Helper()
	idx, ids := benchCorpus(n)
	st := &new(scratch).prepare(idx.NumTerms(), VectorsFromDocs(idx, ids),
		Options{K: k, Seed: 1, PlusPlus: true, MaxIter: 50}, 1)[0]
	st.seed()
	return st
}

// BenchmarkKMeansAssign measures one parallel assignment step (n points × k
// centroids, dense gather dots) at the paper's top-30 result-set scale and
// at the Figure 7 sweep scale. Baseline entries predate dense centroids, so
// the diff against them is the merge-join → gather win.
func benchKMeansAssign(b *testing.B, n, k int) {
	st := benchAssignState(b, n, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.overRanges(0, (*runState).assignRange)
	}
}

func BenchmarkKMeansAssignN30K3(b *testing.B)  { benchKMeansAssign(b, 30, 3) }
func BenchmarkKMeansAssignN200K5(b *testing.B) { benchKMeansAssign(b, 200, 5) }
func BenchmarkKMeansAssignN500K5(b *testing.B) { benchKMeansAssign(b, 500, 5) }

// BenchmarkKMeansDenseAssign is the dense-centroid assignment step at the
// Figure 7 sweep scale — the inner loop the dense-centroid rewrite exists
// for, gated in qec-benchdiff.
func BenchmarkKMeansDenseAssign(b *testing.B) {
	st := benchAssignState(b, 200, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.overRanges(0, (*runState).assignRange)
	}
}

// BenchmarkKMeansFull is the whole algorithm, restarts included, at serving
// shape (top-30 results, k=3, 5 restarts — what Engine.Expand runs in
// QualityExact mode).
func BenchmarkKMeansFull(b *testing.B) {
	idx, ids := benchCorpus(30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kmeans(idx, ids, Options{K: 3, Seed: 1, PlusPlus: true, Restarts: 5})
	}
}

// BenchmarkKMeansServingMode is the same serving-shape run under
// QualityServing (restarts capped, early abandonment) — the latency the
// serving subsystem buys with the quality knob.
func BenchmarkKMeansServingMode(b *testing.B) {
	idx, ids := benchCorpus(30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kmeans(idx, ids, Options{K: 3, Seed: 1, PlusPlus: true, Restarts: 5,
			Quality: QualityServing})
	}
}
