package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"repro/internal/document"
	"repro/internal/index"
)

// refVec is the reference k-means's point or centroid: a term → weight map
// with its Euclidean norm, accumulated in sorted-term order.
type refVec struct {
	w    map[string]float64
	norm float64
}

func newRefVec(w map[string]float64) refVec {
	s := 0.0
	for _, t := range sortedTerms(w) {
		s += w[t] * w[t]
	}
	return refVec{w: w, norm: math.Sqrt(s)}
}

func sortedTerms(w map[string]float64) []string {
	terms := make([]string, 0, len(w))
	for t := range w {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	return terms
}

// refCosDist is 1 − cosine over the point's terms in sorted order, the
// terms a map lookup finds in the centroid.
func refCosDist(p, c refVec) float64 {
	if p.norm == 0 || c.norm == 0 {
		return 1
	}
	dot := 0.0
	for _, t := range sortedTerms(p.w) {
		if cw, ok := c.w[t]; ok {
			dot += p.w[t] * cw
		}
	}
	return 1 - dot/(p.norm*c.norm)
}

// refMean sums the members' maps in input order and scales by 1/len.
func refMean(members []refVec) refVec {
	sum := map[string]float64{}
	for _, m := range members {
		for t, w := range m.w {
			sum[t] += w
		}
	}
	f := 1 / float64(len(members))
	for t := range sum {
		sum[t] *= f
	}
	return newRefVec(sum)
}

type refRun struct {
	assign     []int
	k          int
	distortion float64
	iters      int
}

// refKMeansRun is one exact-mode restart written as plainly as possible:
// the seeding draws, the assignment, the distortion and the mean update
// the k-means driver runs, over string-keyed maps.
func refKMeansRun(pts []refVec, opts Options) refRun {
	n := len(pts)
	k := opts.K
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	cents := make([]refVec, k)
	if opts.PlusPlus {
		cents[0] = pts[rng.Intn(n)]
		for placed := 1; placed < k; placed++ {
			d2 := make([]float64, n)
			total := 0.0
			for i, p := range pts {
				best := refCosDist(p, cents[0])
				for c := 1; c < placed; c++ {
					if d := refCosDist(p, cents[c]); d < best {
						best = d
					}
				}
				d2[i] = best * best
				total += d2[i]
			}
			if total == 0 {
				cents[placed] = pts[rng.Intn(n)]
				continue
			}
			r := rng.Float64() * total
			acc, pick := 0.0, n-1
			for i, d := range d2 {
				acc += d
				if acc >= r {
					pick = i
					break
				}
			}
			cents[placed] = pts[pick]
		}
	} else {
		perm := rng.Perm(n)
		for c := range cents {
			cents[c] = pts[perm[c]]
		}
	}

	run := refRun{assign: make([]int, n), k: k}
	for iter := 0; ; iter++ {
		run.iters++
		changed := false
		run.distortion = 0
		for i, p := range pts {
			best, bestD := 0, refCosDist(p, cents[0])
			for c := 1; c < k; c++ {
				if d := refCosDist(p, cents[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if run.assign[i] != best {
				run.assign[i] = best
				changed = true
			}
			run.distortion += bestD
		}
		if (!changed && iter > 0) || run.iters >= opts.MaxIter {
			return run
		}
		for c := range cents {
			var members []refVec
			for i, p := range pts {
				if run.assign[i] == c {
					members = append(members, p)
				}
			}
			if len(members) > 0 {
				cents[c] = refMean(members)
			}
		}
	}
}

// refKMeans runs the restarts with the derived seeds and keeps the first
// lowest distortion, like QualityExact.
func refKMeans(idx *index.Index, docs []document.DocID, opts Options) *Clustering {
	opts.defaults()
	pts := make([]refVec, len(docs))
	for i, id := range docs {
		w := map[string]float64{}
		freqs := idx.DocTermFreqs(id)
		for j, t := range idx.DocTerms(id) {
			w[t] = float64(freqs[j])
		}
		pts[i] = newRefVec(w)
	}
	var best refRun
	for r := 0; r < max(opts.Restarts, 1); r++ {
		ro := opts
		ro.Seed = opts.Seed + int64(r)*7919
		run := refKMeansRun(pts, ro)
		if r == 0 || run.distortion < best.distortion {
			best = run
		}
	}
	return buildClustering(docs, best.assign, best.k, best.distortion, best.iters)
}

// TestReferenceKMeansMatchesGolden checks the reference itself against the
// golden file captured from the original map-backed implementation, so the
// differential test below compares against a trusted oracle.
func TestReferenceKMeansMatchesGolden(t *testing.T) {
	checked := 0
	for _, w := range kmeansGolden(t) {
		idx, ids, _ := twoTopicIndex(t, w.PerTopic)
		cl := refKMeans(idx, ids, Options{K: w.K, Seed: w.Seed, PlusPlus: w.PlusPlus, Restarts: w.Restarts})
		if math.Float64bits(cl.Distortion) != w.Distortion || cl.Iterations != w.Iterations ||
			fmt.Sprint(cl.Clusters) != fmt.Sprint(w.Clusters) {
			t.Errorf("%s: reference gives %v (%d iters, distortion %v), golden %v (%d iters, distortion %v)",
				w.Name, cl.Clusters, cl.Iterations, cl.Distortion,
				w.Clusters, w.Iterations, math.Float64frombits(w.Distortion))
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("golden file has no k-means cases")
	}
}

// TestKMeansMatchesReference is the randomized differential test of the
// served path: KMeansVecs in exact mode — local term space, dense
// double-buffered centroids, replayed rng — against the map-backed
// reference on random corpora across seeds, k 2–5, both seedings and
// restarts {1, 3}: same membership, iterations and distortion bits.
func TestKMeansMatchesReference(t *testing.T) {
	cases := 0
	for seed := int64(0); seed < 30; seed++ {
		idx, ids := randomCorpus(100+seed, 20+int(seed%5)*15)
		for _, restarts := range []int{1, 3} {
			opts := Options{K: 2 + int(seed%4), Seed: seed * 31, PlusPlus: (seed/2)%2 == 0, Restarts: restarts}
			label := "seed=" + strconv.FormatInt(seed, 10) + " restarts=" + strconv.Itoa(restarts)
			sameClustering(t, label, refKMeans(idx, ids, opts), kmeans(idx, ids, opts))
			cases++
		}
	}
	if cases < 50 {
		t.Fatalf("only %d cases", cases)
	}
}
