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
// tests — noisier and more varied than twoTopicIndex so the bound-pruning
// and abandonment paths see realistic cluster geometry.
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

// vecsOf materializes the global-TermID vectors of a corpus.
func vecsOf(idx *index.Index, ids []document.DocID) []*Vector {
	vecs := make([]*Vector, len(ids))
	for i, id := range ids {
		vecs[i] = VectorFromDocGlobal(idx, id)
	}
	return vecs
}

// TestPrunedAssignmentMatchesUnpruned is the losslessness property of the
// Hamerly single-bound skip: on random corpora, a run with bound-pruned
// assignment produces the identical final clustering — membership,
// iteration count and bit-exact distortion — as the same run with every
// distance computed. (Abandonment is off in both arms so only the pruning
// differs.)
func TestPrunedAssignmentMatchesUnpruned(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		idx, ids := randomCorpus(seed, 40+int(seed%7)*25)
		vecs := vecsOf(idx, ids)
		opts := Options{K: 2 + int(seed%4), Seed: seed, PlusPlus: seed%2 == 0, MaxIter: 50}
		pruned := kmeansDrive(idx.NumTerms(), vecs, ids, opts, 2, true, false)
		full := kmeansDrive(idx.NumTerms(), vecs, ids, opts, 2, false, false)
		sameClustering(t, "seed="+strconv.FormatInt(seed, 10), full, pruned)
	}
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
		vecs := vecsOf(idx, ids)
		opts := Options{K: 4, Seed: seed, PlusPlus: true, MaxIter: 50}
		abandoning := kmeansDrive(idx.NumTerms(), vecs, ids, opts, 2, true, true)
		full := kmeansDrive(idx.NumTerms(), vecs, ids, opts, 2, true, false)
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
	if len(cl.Assign) != len(ids) {
		t.Fatalf("assigned %d of %d", len(cl.Assign), len(ids))
	}
	seen := document.NewDocSet()
	for ord, cluster := range cl.Clusters {
		if len(cluster) == 0 {
			t.Error("empty cluster survived")
		}
		for _, id := range cluster {
			if seen.Contains(id) {
				t.Errorf("doc %d in two clusters", id)
			}
			seen.Add(id)
			if cl.Assign[id] != ord {
				t.Errorf("Assign[%d] = %d, want %d", id, cl.Assign[id], ord)
			}
		}
	}
	if math.IsNaN(cl.Distortion) || math.IsInf(cl.Distortion, 0) {
		t.Fatalf("bad distortion %v", cl.Distortion)
	}
}

// TestQualityStringNames pins the wire names of the quality modes.
func TestQualityStringNames(t *testing.T) {
	if QualityExact.String() != "exact" || QualityServing.String() != "serving" {
		t.Fatalf("quality names: %q / %q", QualityExact, QualityServing)
	}
}

// TestDenseCentroidMatchesSparseMean pins the dense centroid update against
// the exported sparse Mean: same support, same weights, same norm, bit for
// bit (setMean documents itself as bit-identical to Mean).
func TestDenseCentroidMatchesSparseMean(t *testing.T) {
	idx, ids := randomCorpus(13, 30)
	vecs := vecsOf(idx, ids)
	dim := idx.NumTerms()
	c := &centroid{vals: getDenseVals(dim)}
	c.setFromVector(vecs[0]) // occupy some support to exercise the clear path
	st := new(runState)
	c.setMean(vecs, &st.scratch, false)
	want := Mean(vecs, dim)
	if len(c.support) != want.Len() {
		t.Fatalf("support %d vs Mean %d", len(c.support), want.Len())
	}
	for i, id := range want.ids {
		if c.support[i] != id {
			t.Fatalf("support[%d] = %d, want %d", i, c.support[i], id)
		}
		if math.Float64bits(c.vals[id]) != math.Float64bits(want.ws[i]) {
			t.Fatalf("weight[%d] = %v, want %v", id, c.vals[id], want.ws[i])
		}
	}
	if math.Float64bits(c.norm) != math.Float64bits(want.Norm()) {
		t.Fatalf("norm %v vs %v", c.norm, want.Norm())
	}
	// And every cell outside the support is exactly zero — the gather-dot
	// bit-identity argument depends on it.
	onSupport := make(map[int32]bool, len(c.support))
	for _, id := range c.support {
		onSupport[id] = true
	}
	for id, v := range c.vals {
		if !onSupport[int32(id)] && v != 0 {
			t.Fatalf("cell %d outside support holds %v", id, v)
		}
	}
}
