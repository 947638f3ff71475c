package cluster

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/analysis"
	"repro/internal/document"
	"repro/internal/index"
	"repro/internal/par"
)

// randomCorpus builds a seeded multi-topic corpus for the quality property
// tests — noisier and more varied than twoTopicIndex so the abandonment
// path sees realistic cluster geometry.
func randomCorpus(seed int64, n int) (*index.Index, []document.DocID) {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, 300)
	for i := range vocab {
		vocab[i] = "w" + strconv.Itoa(i)
	}
	c := document.NewCorpus()
	ids := make([]document.DocID, n)
	topics := 3 + int(seed%3)
	for i := 0; i < n; i++ {
		topic := (i % topics) * (len(vocab) / topics)
		text := ""
		for j := 0; j < 10+rng.Intn(30); j++ {
			text += " " + vocab[topic+rng.Intn(len(vocab)/topics)]
		}
		ids[i] = c.AddText("", text)
	}
	return index.Build(c, analysis.Simple()), ids
}

// TestEarlyAbandonNeverBeatsFull pins the abandonment contract: the serving
// driver picks its winner from a subset of the identical restarts, so its
// distortion is never below the full driver's, and on most corpora (all but
// the rare non-monotone trajectories) it is exactly equal.
func TestEarlyAbandonNeverBeatsFull(t *testing.T) {
	equal := 0
	const trials = 25
	for seed := int64(0); seed < trials; seed++ {
		idx, ids := randomCorpus(seed, 60)
		vecs := VectorsFromDocs(idx, ids)
		opts := Options{K: 4, Seed: seed, PlusPlus: true, MaxIter: 50}
		abandoning := kmeansDrive(idx.NumTerms(), vecs, ids, opts, 2, true)
		full := kmeansDrive(idx.NumTerms(), vecs, ids, opts, 2, false)
		if abandoning.Distortion < full.Distortion {
			t.Fatalf("seed %d: abandoning run distortion %v below full %v",
				seed, abandoning.Distortion, full.Distortion)
		}
		if math.Float64bits(abandoning.Distortion) == math.Float64bits(full.Distortion) {
			equal++
		}
	}
	// The delta should be the exception, not the rule (empirically ~5% of
	// corpora); a collapse here means abandonment fires far too eagerly.
	if equal < trials*3/4 {
		t.Fatalf("abandonment changed the winner on %d of %d corpora", trials-equal, trials)
	}
}

// TestQualityModesDeterministicAcrossRunsAndWorkers is the per-mode
// determinism contract: for a fixed seed, each quality mode returns the
// identical clustering on every run and for every worker count (lockstep
// rounds make abandonment timing-independent).
func TestQualityModesDeterministicAcrossRunsAndWorkers(t *testing.T) {
	idx, ids := randomCorpus(7, 120)
	for _, q := range []Quality{QualityExact, QualityServing} {
		opts := Options{K: 4, Seed: 11, PlusPlus: true, Restarts: 5, Quality: q}
		ref := kmeans(idx, ids, opts)
		for run := 0; run < 3; run++ {
			sameClustering(t, q.String()+" rerun", ref, kmeans(idx, ids, opts))
		}
		for _, w := range []int{1, 2, 5} {
			restore := par.SetWorkersForTest(w)
			cl := kmeans(idx, ids, opts)
			restore()
			sameClustering(t, q.String()+" workers="+strconv.Itoa(w), ref, cl)
		}
	}
}

// TestServingModeFewerRestartsAndConverges sanity-checks the serving trade:
// the mode still returns a valid partition of the input.
func TestServingModeFewerRestartsAndConverges(t *testing.T) {
	idx, ids := randomCorpus(3, 90)
	cl := kmeans(idx, ids, Options{K: 3, Seed: 5, PlusPlus: true, Restarts: 5,
		Quality: QualityServing})
	checkPartition(t, cl, ids)
	if math.IsNaN(cl.Distortion) || math.IsInf(cl.Distortion, 0) {
		t.Fatalf("bad distortion %v", cl.Distortion)
	}
}

// TestQualityStringNames pins the names of the quality levels, their order
// and the out-of-range spelling.
func TestQualityStringNames(t *testing.T) {
	for q, want := range []string{"exact", "serving", "minimal"} {
		if got := Quality(q).String(); got != want || !Quality(q).Valid() {
			t.Errorf("Quality(%d): %q (valid %t), want %q", q, got, Quality(q).Valid(), want)
		}
	}
	for _, q := range []Quality{-1, 3, 5} {
		if q.Valid() || q.String() != "Quality("+strconv.Itoa(int(q))+")" {
			t.Errorf("Quality(%d): valid %t, name %q", int(q), q.Valid(), q.String())
		}
	}
}

// TestDenseCentroidMatchesSparseMean pins the local-space centroid update
// against the exported sparse Mean: mapped back to global TermIDs, the
// centroid's non-zero cells are Mean's support with the same weights and
// the same norm, bit for bit (setMean documents itself as bit-identical to
// Mean). The update runs twice, into a buffer that held the previous
// centroid, to exercise the double-buffer swap.
func TestDenseCentroidMatchesSparseMean(t *testing.T) {
	idx, ids := randomCorpus(13, 30)
	vecs := VectorsFromDocs(idx, ids)
	sp := new(scratch).termSpace(idx.NumTerms(), vecs)
	terms := globalIDs(t, sp, vecs)
	c := &centroid{vals: make([]float64, sp.size)}
	c.setFromVector(sp.vecs[0])
	acc := make([]float64, sp.size)
	for _, group := range [][]*Vector{sp.vecs[:7], sp.vecs} {
		acc = c.setMean(group, acc)
		want := Mean(vecs[:len(group)])
		var gotIDs []int32
		for lid, w := range c.vals {
			if w != 0 {
				gotIDs = append(gotIDs, terms[lid])
			}
		}
		if len(gotIDs) != want.Len() {
			t.Fatalf("%d docs: %d non-zero cells vs Mean support %d", len(group), len(gotIDs), want.Len())
		}
		for i, id := range want.ids {
			if gotIDs[i] != id {
				t.Fatalf("%d docs: support[%d] = %d, want %d", len(group), i, gotIDs[i], id)
			}
		}
		for lid, w := range c.vals {
			if math.Float64bits(w) != math.Float64bits(want.Weight(terms[lid])) {
				t.Fatalf("%d docs: weight of term %d = %v, want %v", len(group), terms[lid], w, want.Weight(terms[lid]))
			}
		}
		if math.Float64bits(c.norm) != math.Float64bits(want.Norm()) {
			t.Fatalf("%d docs: norm %v vs %v", len(group), c.norm, want.Norm())
		}
	}
}

// globalIDs maps each local ID of sp back to its global TermID, read off
// the vectors, and checks the space: one global ID per local ID, the local
// IDs 0..L−1 all used and numbered in ascending global order, and every
// local vector carrying its input's weights and norm.
func globalIDs(t *testing.T, sp termSpace, vecs []*Vector) []int32 {
	t.Helper()
	terms := make([]int32, sp.size)
	seen := make([]bool, sp.size)
	for i, v := range vecs {
		lv := sp.vecs[i]
		if lv.Len() != v.Len() || lv.Norm() != v.Norm() {
			t.Fatalf("vector %d: len/norm %d/%v, want %d/%v", i, lv.Len(), lv.Norm(), v.Len(), v.Norm())
		}
		for j, lid := range lv.ids {
			if lv.ws[j] != v.ws[j] || (seen[lid] && terms[lid] != v.ids[j]) {
				t.Fatalf("vector %d component %d: local %d is global %d, was %d", i, j, lid, v.ids[j], terms[lid])
			}
			terms[lid], seen[lid] = v.ids[j], true
		}
	}
	for lid := range terms {
		if !seen[lid] || (lid > 0 && terms[lid-1] >= terms[lid]) {
			t.Fatalf("local ID %d (global %d): not the ascending union", lid, terms[lid])
		}
	}
	return terms
}

// TestTermSpaceRenumbersInOrder checks the local space of several corpora,
// including an empty vector and an empty input.
func TestTermSpaceRenumbersInOrder(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		idx, ids := randomCorpus(seed, 20+int(seed)*20)
		vecs := append(VectorsFromDocs(idx, ids), newVectorSorted(nil, nil))
		globalIDs(t, new(scratch).termSpace(idx.NumTerms(), vecs), vecs)
	}
	if sp := new(scratch).termSpace(10, nil); sp.size != 0 || len(sp.vecs) != 0 {
		t.Fatalf("empty input: size %d, %d vectors", sp.size, len(sp.vecs))
	}
}
