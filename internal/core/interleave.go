package core

import (
	"context"
	"slices"

	"repro/internal/cluster"
	"repro/internal/document"
)

// Interleave implements the paper's Section 7 future-work direction of
// "interweaving the clustering and query expansion process": starting from
// an initial clustering, it alternates (a) generating one expanded query
// per cluster and (b) re-assigning every result to the cluster whose
// expanded query retrieves it best, until the assignment stabilizes or the
// round budget is exhausted. Because the expanded queries are exactly the
// boundaries users will navigate by, re-clustering around them tends to
// raise the Eq. 1 score above what one-shot clustering achieves.
type Interleave struct {
	// Expander generates queries each round (nil means ISKR).
	Expander Expander
	// MaxRounds bounds the alternation (0 means 5).
	MaxRounds int
}

// InterleaveResult is the converged outcome: the best round's QEC result
// and the clusters its queries were generated for — the clusters its P/R
// were measured against, one per Result.Expansions entry, each as ascending
// DocIDs.
type InterleaveResult struct {
	Result   *QECResult
	Clusters [][]document.DocID
	Rounds   int
}

// Run alternates expansion and re-assignment starting from cl, whose
// clusters must partition u's documents. Re-assignment moves results between
// clusters but never in or out of the universe, so u serves every round's
// problems. ctx is checked before every per-cluster solve: a cancelled Run
// returns (nil, ctx.Err()) without finishing its round.
func (it *Interleave) Run(ctx context.Context, u *Universe, cl *cluster.Clustering) (*InterleaveResult, error) {
	ex := it.Expander
	if ex == nil {
		ex = &ISKR{}
	}
	maxRounds := it.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 5
	}
	n := len(u.Docs())
	// Each round builds fresh sets, so a round's problems may keep theirs.
	sets := cl.Sets()

	var best *QECResult
	var bestSets []document.BitSet
	rounds := 0
	for round := 0; round < maxRounds; round++ {
		rounds = round + 1
		problems := u.Problems(sets)
		res, err := SolveCtx(ctx, ex, problems)
		if err != nil {
			return nil, err
		}
		if best == nil || res.Score > best.Score {
			best, bestSets = res, sets
		}
		// Re-assign: each result goes to the cluster whose expanded query
		// retrieves it; results retrieved by several queries go to the one
		// whose cluster they already belong to if possible, else the first.
		retrieved := make([]document.BitSet, len(sets))
		for i, p := range problems {
			retrieved[i] = p.retrieveBits(res.Expansions[i].Expanded.Query)
		}
		newSets := make([]document.BitSet, len(sets))
		for i := range newSets {
			newSets[i] = document.NewBitSet(n)
		}
		for di := 0; di < n; di++ {
			target := -1
			for i, r := range retrieved {
				if !r.Contains(di) {
					continue
				}
				if target < 0 {
					target = i
				}
				if sets[i].Contains(di) {
					target = i
					break
				}
			}
			if target < 0 {
				// Unretrieved by every query: keep the current cluster.
				for i, s := range sets {
					if s.Contains(di) {
						target = i
						break
					}
				}
			}
			newSets[target].Add(di)
		}
		// Drop emptied clusters.
		newSets = slices.DeleteFunc(newSets, document.BitSet.Empty)
		if slices.EqualFunc(sets, newSets, document.BitSet.Equal) {
			break
		}
		sets = newSets
	}
	clusters := make([][]document.DocID, len(bestSets))
	for i, s := range bestSets {
		clusters[i] = make([]document.DocID, 0, s.Len())
		s.ForEach(func(di int) { clusters[i] = append(clusters[i], u.docs[di]) })
	}
	return &InterleaveResult{Result: best, Clusters: clusters, Rounds: rounds}, nil
}
