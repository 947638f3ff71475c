package cluster

import "repro/internal/document"

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
// vector of docs[i] (the input KMeansVecs took), and the clustering must
// cover only those documents. Documents in singleton clusters contribute 0.
func Silhouette(vecs []*Vector, docs []document.DocID, c *Clustering) float64 {
	var all []document.DocID
	for _, ids := range c.Clusters {
		all = append(all, ids...)
	}
	if len(all) < 2 || c.K() < 2 {
		return 0
	}
	vec := make(map[document.DocID]*Vector, len(docs))
	for i, id := range docs {
		vec[id] = vecs[i]
	}
	meanDist := func(id document.DocID, ids []document.DocID) float64 {
		total, n := 0.0, 0
		for _, other := range ids {
			if other == id {
				continue
			}
			total += vec[id].CosineDistance(vec[other])
			n++
		}
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	sum := 0.0
	for _, id := range all {
		own := c.Assign[id]
		if len(c.Clusters[own]) < 2 {
			continue // silhouette of a singleton is defined as 0
		}
		a := meanDist(id, c.Clusters[own])
		b := -1.0
		for ci, ids := range c.Clusters {
			if ci == own {
				continue
			}
			if d := meanDist(id, ids); b < 0 || d < b {
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
	return sum / float64(len(all))
}
