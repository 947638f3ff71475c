package cluster

import (
	"repro/internal/document"
	"repro/internal/index"
	"repro/internal/par"
)

// Linkage selects how agglomerative clustering scores a merge.
type Linkage int

const (
	// AverageLinkage merges the pair with the highest mean pairwise cosine
	// similarity (UPGMA).
	AverageLinkage Linkage = iota
	// SingleLinkage merges the pair with the highest maximum similarity.
	SingleLinkage
	// CompleteLinkage merges the pair with the highest minimum similarity.
	CompleteLinkage
)

// Agglomerative performs hierarchical agglomerative clustering down to k
// clusters under the given linkage, using cosine similarity between TF
// vectors. It is the comparison clustering method for the paper's future
// work question ("how different clustering methods affect the expanded
// queries"). O(n^3) worst case — fine at the paper's scale (top-30 results,
// scalability sweeps to 500).
func Agglomerative(idx *index.Index, docs []document.DocID, k int, linkage Linkage) *Clustering {
	n := len(docs)
	if n == 0 {
		return &Clustering{}
	}
	if k <= 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	// Corpus-global TermID vectors — identical similarities to the per-run
	// Dict projection they replace, without the interning pass.
	vecs := VectorsFromDocs(idx, docs)
	// Pairwise similarity matrix; rows fill in parallel. Row i costs i dot
	// products; par.For hands rows out one at a time, which keeps the
	// triangular workload balanced. Each pair (i, j) with j < i is written
	// only by row i, so writes stay disjoint.
	sim := make([][]float64, n)
	for i := range sim {
		sim[i] = make([]float64, n)
	}
	par.For(n, func(i int) {
		for j := 0; j < i; j++ {
			s := vecs[i].Cosine(vecs[j])
			sim[i][j] = s
			sim[j][i] = s
		}
	})
	// active clusters as member index lists
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	merge := func(a, b []int) float64 {
		switch linkage {
		case SingleLinkage:
			best := -1.0
			for _, i := range a {
				for _, j := range b {
					if sim[i][j] > best {
						best = sim[i][j]
					}
				}
			}
			return best
		case CompleteLinkage:
			worst := 2.0
			for _, i := range a {
				for _, j := range b {
					if sim[i][j] < worst {
						worst = sim[i][j]
					}
				}
			}
			return worst
		default: // AverageLinkage
			total := 0.0
			for _, i := range a {
				for _, j := range b {
					total += sim[i][j]
				}
			}
			return total / float64(len(a)*len(b))
		}
	}
	for len(clusters) > k {
		bestA, bestB, bestS := 0, 1, -1.0
		for a := 0; a < len(clusters); a++ {
			for b := a + 1; b < len(clusters); b++ {
				if s := merge(clusters[a], clusters[b]); s > bestS {
					bestA, bestB, bestS = a, b, s
				}
			}
		}
		clusters[bestA] = append(clusters[bestA], clusters[bestB]...)
		clusters = append(clusters[:bestB], clusters[bestB+1:]...)
	}
	assign := make([]int, n)
	for c, members := range clusters {
		for _, i := range members {
			assign[i] = c
		}
	}
	return buildClustering(docs, assign, len(clusters), 0, n-len(clusters))
}
