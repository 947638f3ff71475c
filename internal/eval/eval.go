// Package eval implements the quality measures of Section 2: precision,
// recall and F-measure of an expanded query against its cluster (both
// unweighted and rank-weighted), the Eq. 1 harmonic-mean score of a set of
// expanded queries, and the comprehensiveness/diversity measures used by the
// collective-score part of the user study.
package eval

import (
	"math/bits"

	"repro/internal/document"
)

// Weights maps documents to ranking scores. A nil Weights means "unranked":
// every document counts 1, reducing the weighted measures to the set-based
// ones.
type Weights map[document.DocID]float64

// Dense resolves the weights of the given documents into a table indexed by
// position in ids — the dense weight table of a result universe, the form
// SBits, MeasureBits and AccumWord read. A document missing from w, or
// scored ≤ 0, counts 1 (the search layer assigns scores only to ranked
// results). A nil Weights yields nil: unranked, every document counts 1.
func (w Weights) Dense(ids []document.DocID) []float64 {
	if w == nil {
		return nil
	}
	out := make([]float64, len(ids))
	for i, id := range ids {
		if s, ok := w[id]; ok && s > 0 {
			out[i] = s
		} else {
			out[i] = 1
		}
	}
	return out
}

// AccumWord adds the weights of the set bits of one bitset word to acc as a
// flat left-fold in ascending bit order; wi is the word's index in the set
// and w the dense weight table (nil = every member counts 1). The fold shape
// matters: the dense paths must produce bit-identical sums to the historical
// sorted-ID map iteration, and float addition is not associative, so per-word
// partial sums may NOT be formed in the weighted case. Unweighted (w nil)
// sums are exact integers, where a popcount shortcut is associative and
// therefore safe. This single implementation backs both eval's measures and
// core's benefit/cost accumulation — the bit-identical-output contract
// depends on them folding identically.
func AccumWord(acc float64, wi int, word uint64, w []float64) float64 {
	if word == 0 {
		return acc
	}
	if w == nil {
		return acc + float64(bits.OnesCount64(word))
	}
	base := wi << 6
	for word != 0 {
		acc += w[base+bits.TrailingZeros64(word)]
		word &= word - 1
	}
	return acc
}

// SBits is S(·) over a dense-ID bitset: the cardinality when w is nil, else
// the sum of w[id] over the members in ascending ID order. w is indexed by
// dense ID and must already resolve the "missing weights count 1" rule.
func SBits(set document.BitSet, w []float64) float64 {
	total := 0.0
	for wi, word := range set.Words() {
		total = AccumWord(total, wi, word, w)
	}
	return total
}

// PRF holds the three measures of one expanded query.
type PRF struct {
	Precision float64
	Recall    float64
	F         float64
}

// MeasureIDs is the rank-weighted precision, recall and F-measure of a
// retrieved set against a universe that is itself the ground truth (the flat
// backends' result neighborhood), both as ascending document IDs: the
// search layer's Eval form and the ResultIDs form. w is the universe's dense
// weight table (Weights.Dense; nil = unranked); a retrieved document outside
// the universe counts 1. Both sums fold in ascending ID order, so the
// result is bit-identical across runs.
func MeasureIDs(retrieved, universe []document.DocID, w []float64) PRF {
	if len(retrieved) == 0 || len(universe) == 0 {
		return PRF{}
	}
	inter, sR, j := 0.0, 0.0, 0
	for _, id := range retrieved {
		for j < len(universe) && universe[j] < id {
			j++
		}
		wt := 1.0
		if j < len(universe) && universe[j] == id {
			if w != nil {
				wt = w[j]
			}
			inter += wt
		}
		sR += wt
	}
	sU := float64(len(universe))
	if w != nil {
		sU = 0
		for _, x := range w {
			sU += x
		}
	}
	p := inter / sR
	r := inter / sU
	return PRF{Precision: p, Recall: r, F: FMeasure(p, r)}
}

// MeasureBits computes the rank-weighted precision, recall and F-measure of
// a retrieved set against cluster C (the ground truth), per Section 2:
//
//	precision = S(R ∩ C) / S(R),  recall = S(R ∩ C) / S(C)
//
// retrieved and cluster are bitsets over one universe's dense IDs; w is its
// dense weight table (nil = unranked); sCluster is S(cluster), which callers
// cache because the cluster is fixed across the many candidate queries of
// one problem. Both sums accumulate in ascending dense-ID order (= ascending
// DocID order). An empty retrieved set has precision 0 (and recall 0), so F
// is 0; an empty cluster makes the measure undefined and returns zeros.
func MeasureBits(retrieved, cluster document.BitSet, w []float64, sCluster float64) PRF {
	inter, sR := 0.0, 0.0
	cw := cluster.Words()
	for wi, word := range retrieved.Words() {
		inter = AccumWord(inter, wi, word&cw[wi], w)
		sR = AccumWord(sR, wi, word, w)
	}
	// Weights are strictly positive, so a zero sum ⟺ an empty set.
	if sR == 0 || sCluster == 0 {
		return PRF{}
	}
	p := inter / sR
	r := inter / sCluster
	return PRF{Precision: p, Recall: r, F: FMeasure(p, r)}
}

// FMeasure returns the harmonic mean of precision and recall; 0 when both
// are 0.
func FMeasure(p, r float64) float64 {
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Score implements Eq. 1: the harmonic mean of the F-measures of the k
// expanded queries, one per cluster. If any F-measure is 0 the harmonic mean
// is 0; the empty set scores 0.
func Score(fmeasures []float64) float64 {
	if len(fmeasures) == 0 {
		return 0
	}
	sum := 0.0
	for _, f := range fmeasures {
		if f <= 0 {
			return 0
		}
		sum += 1 / f
	}
	return float64(len(fmeasures)) / sum
}

// Comprehensiveness measures how much of the original result universe the
// expanded queries jointly cover: S(∪ R_i) / S(universe). retrieved are
// bitsets over the universe's n dense IDs and w its dense weight table.
// Used by the simulated collective user study (Figure 3/4); the paper's
// raters call a set of expanded queries comprehensive when it "covers
// various aspects/meanings of the original query".
func Comprehensiveness(retrieved []document.BitSet, n int, w []float64) float64 {
	if n == 0 {
		return 0
	}
	union := document.NewBitSet(n)
	for _, r := range retrieved {
		union.Or(r)
	}
	return SBits(union, w) / SBits(document.FullBitSet(n), w)
}

// Diversity measures how little the expanded queries' result sets overlap:
// 1 − mean pairwise Jaccard similarity. A single query (or none) is
// trivially diverse. The sets share one universe.
func Diversity(retrieved []document.BitSet) float64 {
	n := len(retrieved)
	if n < 2 {
		return 1
	}
	totalJ, pairs := 0.0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs++
			inter := retrieved[i].AndLen(retrieved[j])
			union := retrieved[i].Len() + retrieved[j].Len() - inter
			if union == 0 {
				continue // two empty sets: count overlap as 0
			}
			totalJ += float64(inter) / float64(union)
		}
	}
	return 1 - totalJ/float64(pairs)
}
