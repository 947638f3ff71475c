package core

import (
	"context"

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

// InterleaveResult is the converged outcome.
type InterleaveResult struct {
	Result   *QECResult
	Clusters []document.DocSet
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
	sets := cl.Sets()
	universe := u.Set

	var best *QECResult
	bestSets := sets
	rounds := 0
	for round := 0; round < maxRounds; round++ {
		rounds = round + 1
		problems := u.Problems(sets)
		res, err := SolveCtx(ctx, ex, problems)
		if err != nil {
			return nil, err
		}
		if best == nil || res.Score > best.Score {
			best = res
			bestSets = cloneSets(sets)
		}
		// Re-assign: each result goes to the cluster whose expanded query
		// retrieves it; results retrieved by several queries go to the one
		// whose cluster they already belong to if possible, else the first.
		newSets := make([]document.DocSet, len(sets))
		for i := range newSets {
			newSets[i] = document.DocSet{}
		}
		retrieved := make([]document.DocSet, len(sets))
		for i, p := range problems {
			retrieved[i] = p.Retrieve(res.Expansions[i].Expanded.Query)
		}
		for id := range universe {
			target := -1
			for i, r := range retrieved {
				if !r.Contains(id) {
					continue
				}
				if target < 0 {
					target = i
				}
				if sets[i].Contains(id) {
					target = i
					break
				}
			}
			if target < 0 {
				// Unretrieved by every query: keep the current cluster.
				for i, s := range sets {
					if s.Contains(id) {
						target = i
						break
					}
				}
			}
			newSets[target].Add(id)
		}
		// Drop emptied clusters.
		compact := newSets[:0]
		for _, s := range newSets {
			if s.Len() > 0 {
				compact = append(compact, s)
			}
		}
		newSets = compact
		if setsEqual(sets, newSets) {
			break
		}
		sets = newSets
	}
	return &InterleaveResult{Result: best, Clusters: bestSets, Rounds: rounds}, nil
}

func cloneSets(sets []document.DocSet) []document.DocSet {
	out := make([]document.DocSet, len(sets))
	for i, s := range sets {
		out[i] = s.Clone()
	}
	return out
}

func setsEqual(a, b []document.DocSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
