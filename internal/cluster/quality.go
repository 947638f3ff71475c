package cluster

import (
	"cmp"
	"slices"

	"repro/internal/document"
)

// Purity measures agreement between a clustering and ground-truth labels:
// the fraction of documents assigned to the majority label of their cluster.
// Used by dataset tests to confirm the synthetic corpora cluster the way the
// paper's corpora do (categories / senses separate cleanly).
func Purity(c *Clustering, labels map[document.DocID]string) float64 {
	total := 0
	agree := 0
	for _, ids := range c.Clusters {
		counts := map[string]int{}
		for _, id := range ids {
			counts[labels[id]]++
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		agree += best
		total += len(ids)
	}
	if total == 0 {
		return 0
	}
	return float64(agree) / float64(total)
}

// Silhouette returns the mean silhouette coefficient of the clustering under
// cosine distance, in [-1, 1]; higher is better separated. vecs[i] is the
// vector of docs[i], and c must be the clustering of exactly those documents
// (the input KMeansVecs took), so c.Assign is positional over them.
// Documents in singleton clusters contribute 0.
func Silhouette(vecs []*Vector, docs []document.DocID, c *Clustering) float64 {
	n := len(c.Assign)
	if n < 2 || c.K() < 2 {
		return 0
	}
	// members[ci] lists cluster ci's positions in ascending DocID order, the
	// order of Clusters[ci], so the distance sums fold in that order.
	members := make([][]int, c.K())
	for i, ci := range c.Assign {
		members[ci] = append(members[ci], i)
	}
	for _, m := range members {
		slices.SortFunc(m, func(a, b int) int { return cmp.Compare(docs[a], docs[b]) })
	}
	meanDist := func(i int, m []int) float64 {
		total, cnt := 0.0, 0
		for _, other := range m {
			if other == i {
				continue
			}
			total += vecs[i].CosineDistance(vecs[other])
			cnt++
		}
		if cnt == 0 {
			return 0
		}
		return total / float64(cnt)
	}
	sum := 0.0
	for own, m := range members {
		if len(m) < 2 {
			continue // silhouette of a singleton is defined as 0
		}
		for _, i := range m {
			a := meanDist(i, m)
			b := -1.0
			for ci, other := range members {
				if ci == own {
					continue
				}
				if d := meanDist(i, other); b < 0 || d < b {
					b = d
				}
			}
			max := a
			if b > max {
				max = b
			}
			if max > 0 {
				sum += (b - a) / max
			}
		}
	}
	return sum / float64(n)
}
