package core

// Dedicated PEBC tests: partial-elimination target accuracy per selection
// strategy (the §4.1 vs §4.2 vs §4.3 comparison), sample-query semantics,
// and convergence behaviour.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/document"
	"repro/internal/search"
)

// eliminationError measures how far a strategy lands from the x% target on
// a problem, in eliminated-fraction points.
func eliminationError(t *testing.T, p *Problem, strategy SelectionStrategy, x float64, seed int64) float64 {
	t.Helper()
	a := &PEBC{Strategy: strategy, Seed: seed}
	rng := rand.New(rand.NewSource(seed))
	q := a.partialElimination(newElimState(p), x, rng)
	remaining := p.retrieveBits(q)
	remaining.And(p.uB)
	eliminated := p.sU - p.sumBits(remaining)
	return math.Abs(eliminated/p.sU*100 - x)
}

// lumpyProblem builds a scaled Example 4.2 family: few keywords with lumpy,
// overlapping elimination sets, so the §4.1 fixed selection order yields a
// coarse "ladder" of reachable elimination counts that skips many targets,
// while per-result random selection can combine sets differently per
// target. This is the regime the paper's rejection of §4.1 is about.
func lumpyProblem(scale int) *Problem {
	u := docSet{}
	for i := 0; i < 10*scale; i++ {
		u.Add(document.DocID(i))
	}
	cIDs := docSet{}
	for i := 0; i < 13*scale; i++ {
		cIDs.Add(document.DocID(1000 + i))
	}
	universe := u.Union(cIDs)
	// Scaled copies of Example 4.2's elimination sets.
	elim := map[string]docSet{}
	addElim := func(name string, uFrom, uTo, cFrom, cTo int) {
		set := docSet{}
		for i := uFrom * scale; i < uTo*scale; i++ {
			set.Add(document.DocID(i))
		}
		for i := cFrom * scale; i < cTo*scale; i++ {
			set.Add(document.DocID(1000 + i))
		}
		elim[name] = set
	}
	addElim("job", 0, 4, 0, 2)      // benefit 4s, cost 2s
	addElim("store", 4, 10, 2, 8)   // benefit 6s, cost 6s
	addElim("location", 2, 4, 8, 9) // overlaps job's U range; cost 1s
	addElim("fruit", 3, 7, 9, 13)   // spans both; cost 4s
	contain := map[string]docSet{}
	for k, e := range elim {
		contain[k] = universe.Subtract(e)
	}
	return newProblemFromSets(search.NewQuery("seed"), cIDs, u, nil, contain)
}

func TestSingleResultHitsTargetsBetterThanFixedOrder(t *testing.T) {
	// On the lumpy family, §4.3's per-result random selection must land
	// closer to the x% elimination target than §4.1's fixed order, which
	// can only reach a fixed ladder of elimination counts (Examples
	// 4.2/4.4). Averaged over targets, seeds and scales.
	var errSingle, errFixed float64
	n := 0
	for scale := 1; scale <= 3; scale++ {
		p := lumpyProblem(scale)
		for _, x := range []float64{30, 50, 70, 90} {
			for seed := int64(0); seed < 6; seed++ {
				errSingle += eliminationError(t, p, SelectSingleResult, x, seed)
				errFixed += eliminationError(t, p, SelectFixedOrder, x, seed)
				n++
			}
		}
	}
	if errSingle >= errFixed {
		t.Errorf("single-result mean error %.2f not below fixed-order %.2f",
			errSingle/float64(n), errFixed/float64(n))
	}
}

func TestSingleResultTargetingIsUsable(t *testing.T) {
	// Sanity bound: on fine-grained instances (every keyword eliminates
	// only a small slice of U, so precise targeting is possible) the §4.3
	// procedure stays close to its target on average.
	var total float64
	n := 0
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		c, u := docSet{}, docSet{}
		for i := 0; i < 12; i++ {
			c.Add(document.DocID(i))
		}
		for i := 0; i < 24; i++ {
			u.Add(document.DocID(1000 + i))
		}
		ids := c.Union(u).IDs()
		contain := map[string]docSet{}
		for k := 0; k < 16; k++ {
			name := string(rune('a' + k))
			set := docSet{}
			for _, id := range ids {
				if rng.Float64() < 0.85 {
					set.Add(id)
				}
			}
			contain[name] = set
		}
		p := newProblemFromSets(search.NewQuery("seed"), c, u, nil, contain)
		for _, x := range []float64{30, 50, 70} {
			total += eliminationError(t, p, SelectSingleResult, x, seed)
			n++
		}
	}
	if mean := total / float64(n); mean > 15 {
		t.Errorf("mean elimination error %.1f points, want <= 15", mean)
	}
}

func TestPartialEliminationZeroTargetIsSeedQuery(t *testing.T) {
	p := randomProblem(5, 10, 14, 10, false)
	for _, strategy := range []SelectionStrategy{SelectSingleResult, SelectFixedOrder, SelectSubset} {
		a := &PEBC{Strategy: strategy, Seed: 3}
		q := a.partialElimination(newElimState(p), 0, rand.New(rand.NewSource(3)))
		if q.String() != p.UserQuery.String() {
			t.Errorf("%v: x=0 produced %v, want the unmodified user query",
				strategy, q.Terms)
		}
	}
}

func TestPartialEliminationFullTargetEliminatesMost(t *testing.T) {
	p := randomProblem(6, 10, 16, 12, false)
	a := &PEBC{Seed: 1}
	q := a.partialElimination(newElimState(p), 100, rand.New(rand.NewSource(1)))
	remaining := p.retrieveBits(q).AndLen(p.uB)
	// x=100 should eliminate (nearly) everything that the keyword pool can
	// eliminate.
	if float64(remaining) > 0.3*float64(p.uB.Len()) {
		t.Errorf("x=100 left %d of %d U-results", remaining, p.uB.Len())
	}
}

func TestPartialEliminationNeverDropsUserQueryTerms(t *testing.T) {
	p := randomProblem(8, 10, 14, 12, false)
	for _, strategy := range []SelectionStrategy{SelectSingleResult, SelectFixedOrder, SelectSubset} {
		a := &PEBC{Strategy: strategy, Seed: 2}
		q := a.partialElimination(newElimState(p), 60, rand.New(rand.NewSource(2)))
		if !q.Contains("seed") {
			t.Errorf("%v: user query term dropped: %v", strategy, q.Terms)
		}
		for _, term := range q.Terms {
			if term == "seed" {
				continue
			}
			if _, ok := p.kwID(term); !ok {
				t.Errorf("%v: non-pool term %q", strategy, term)
			}
		}
	}
}

func TestPEBCSubsetStrategyCoversSelectedResults(t *testing.T) {
	// The §4.2 strategy must still produce a valid query that eliminates
	// a nonzero fraction when asked for 50%.
	p := randomProblem(9, 10, 16, 12, false)
	a := &PEBC{Strategy: SelectSubset, Seed: 4}
	q := a.partialElimination(newElimState(p), 50, rand.New(rand.NewSource(4)))
	if p.retrieveBits(q).AndLen(p.uB) == p.uB.Len() {
		t.Error("subset strategy eliminated nothing at x=50")
	}
}

func TestClosersWithout(t *testing.T) {
	// before=4, after=8, target=5 → keeping "before" is closer.
	if !closerWithout(4, 8, 5) {
		t.Error("4 is closer to 5 than 8")
	}
	if closerWithout(4, 8, 7) {
		t.Error("8 is closer to 7 than 4")
	}
	// Ties keep the smaller elimination (conservative).
	if !closerWithout(4, 6, 5) {
		t.Error("tie should prefer stopping short")
	}
}

func TestPEBCZoomNarrowsInterval(t *testing.T) {
	// With more iterations PEBC must never get worse: it keeps the best
	// sample seen.
	p := randomProblem(10, 12, 18, 12, false)
	few := (&PEBC{Segments: 3, Iterations: 1, Seed: 5}).Expand(p)
	many := (&PEBC{Segments: 3, Iterations: 4, Seed: 5}).Expand(p)
	if many.PRF.F < few.PRF.F-1e-9 {
		t.Errorf("more iterations worsened F: %v -> %v", few.PRF.F, many.PRF.F)
	}
	if many.Iterations != 4 || few.Iterations != 1 {
		t.Errorf("iterations recorded wrong: %d, %d", few.Iterations, many.Iterations)
	}
}

func TestPEBCEmptyUniverseU(t *testing.T) {
	// A cluster that IS the whole universe (U empty): PEBC degenerates to
	// the seed query with F=1.
	c := newDocSet(1, 2, 3)
	contain := map[string]docSet{"k": newDocSet(1)}
	p := newProblemFromSets(search.NewQuery("seed"), c, docSet{}, nil, contain)
	got := (&PEBC{Seed: 1}).Expand(p)
	if got.PRF.F != 1 {
		t.Errorf("F = %v with empty U", got.PRF.F)
	}
}

func TestISKREmptyPool(t *testing.T) {
	c := newDocSet(1, 2)
	u := newDocSet(3)
	p := newProblemFromSets(search.NewQuery("seed"), c, u, nil, nil)
	got := (&ISKR{}).Expand(p)
	if got.Query.String() != "seed" {
		t.Errorf("empty pool produced %v", got.Query.Terms)
	}
	if got.Iterations != 0 {
		t.Errorf("iterations = %d", got.Iterations)
	}
}
