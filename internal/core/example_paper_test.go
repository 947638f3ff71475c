package core

// This file encodes the paper's worked Examples 3.1, 3.2, 4.2 and 4.4
// exactly, as executable ground truth for ISKR and PEBC.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/document"
	"repro/internal/search"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// paperExample builds the instance of Example 3.1:
// cluster C = {R1..R8} (ids 1..8), U = {R1'..R10'} (ids 101..110),
// keywords job/store/location/fruit with the elimination sets of the table.
// contain = universe minus elimination set.
func paperExample() *refProblem {
	c := newDocSet(1, 2, 3, 4, 5, 6, 7, 8)
	u := newDocSet(101, 102, 103, 104, 105, 106, 107, 108, 109, 110)
	universe := c.Union(u)
	elim := map[string]docSet{
		"job":      newDocSet(1, 2, 3, 4, 5, 6, 101, 102, 103, 104, 105, 106, 107, 108),
		"store":    newDocSet(1, 2, 3, 4, 101, 102, 103, 104, 109),
		"location": newDocSet(2, 3, 4, 5, 105, 106, 107, 108, 110),
		"fruit":    newDocSet(1, 2, 3, 102, 103, 104),
	}
	contain := map[string]docSet{}
	for k, e := range elim {
		contain[k] = universe.Subtract(e)
	}
	return newRef(search.NewQuery("apple"), c, u, nil, contain)
}

func TestExample31InitialValues(t *testing.T) {
	p := paperExample().p
	st := &iskrState{p: p, q: p.UserQuery, r: p.allB.Clone()}
	// Paper's initial table: job 8/6, store 5/4, location 5/4, fruit 3/3.
	want := map[string][2]float64{
		"job":      {8, 6},
		"store":    {5, 4},
		"location": {5, 4},
		"fruit":    {3, 3},
	}
	for k, bc := range want {
		kid, _ := p.kwID(k)
		b, c := st.addDeltas(int(kid))
		if b != bc[0] || c != bc[1] {
			t.Errorf("%s: benefit/cost = %v/%v, want %v/%v", k, b, c, bc[0], bc[1])
		}
	}
	if v := value(8, 6); math.Abs(v-1.3333333333) > 1e-6 {
		t.Errorf("value(job) = %v", v)
	}
}

func TestExample31ValuesAfterAddingJob(t *testing.T) {
	ref := paperExample()
	p := ref.p
	nk := len(p.Pool)
	st := &iskrState{
		p: p, q: p.UserQuery, r: p.allB.Clone(),
		addBenefit: make([]float64, nk), addCost: make([]float64, nk),
		active: make([]bool, nk),
	}
	for ki := range p.Pool {
		b, c := st.addDeltas(ki)
		st.addBenefit[ki], st.addCost[ki] = b, c
		st.active[ki] = true
	}
	jobID, _ := p.kwID("job")
	st.apply(int(jobID), true)

	bc := func(k string) (float64, float64) {
		ki, _ := p.kwID(k)
		return st.addBenefit[ki], st.addCost[ki]
	}
	// Paper's updated table: store 1/0, location 1/0, fruit 0/0.
	// (The printed table lists store's value as "1"; under the benefit/cost
	// definition 1/0 is unbounded — treated as +Inf here, which is what
	// makes the example's continuation consistent with the ≤1 stop rule.)
	if b, c := bc("store"); b != 1 || c != 0 {
		t.Errorf("store = %v/%v, want 1/0", b, c)
	}
	if b, c := bc("location"); b != 1 || c != 0 {
		t.Errorf("location = %v/%v, want 1/0", b, c)
	}
	if b, c := bc("fruit"); b != 0 || c != 0 {
		t.Errorf("fruit = %v/%v, want 0/0", b, c)
	}
	// Removal row for job: benefit 6, cost 8 (value 0.75).
	b, c, _ := st.removeDeltas("job")
	if b != 6 || c != 8 {
		t.Errorf("remove job = %v/%v, want 6/8", b, c)
	}
	// R(q) now retrieves R7, R8 in C and R9', R10' in U.
	wantR := newDocSet(7, 8, 109, 110)
	if !ref.set(st.r).Equal(wantR) {
		t.Errorf("R(q) = %v, want %v", ref.set(st.r).IDs(), wantR.IDs())
	}
}

func TestExample32FullISKRRun(t *testing.T) {
	ref := paperExample()
	p := ref.p
	got := (&ISKR{}).Expand(p)
	// The paper's run ends with q = {apple, store, location} after job is
	// added and later removed (Example 3.2).
	wantTerms := map[string]bool{"apple": true, "store": true, "location": true}
	if len(got.Query.Terms) != 3 {
		t.Fatalf("final query = %v, want {apple store location}", got.Query.Terms)
	}
	for _, term := range got.Query.Terms {
		if !wantTerms[term] {
			t.Fatalf("final query = %v, want {apple store location}", got.Query.Terms)
		}
	}
	// Final result set: {R6, R7, R8} — precision 1, recall 3/8.
	r := ref.set(p.retrieveBits(got.Query))
	if !r.Equal(newDocSet(6, 7, 8)) {
		t.Errorf("R(final) = %v, want {6 7 8}", r.IDs())
	}
	if got.PRF.Precision != 1 {
		t.Errorf("precision = %v, want 1", got.PRF.Precision)
	}
	if math.Abs(got.PRF.Recall-3.0/8.0) > 1e-12 {
		t.Errorf("recall = %v, want 3/8", got.PRF.Recall)
	}
	if math.Abs(got.PRF.F-6.0/11.0) > 1e-12 {
		t.Errorf("F = %v, want 6/11", got.PRF.F)
	}
}

func TestExample32RemovalDisabledKeepsJob(t *testing.T) {
	p := paperExample().p
	got := (&ISKR{DisableRemoval: true}).Expand(p)
	// Without removal the run cannot drop job; recall stays at 2/8 so F is
	// strictly lower than the full algorithm's 6/11. (The ablation point.)
	full := (&ISKR{}).Expand(p)
	if got.PRF.F >= full.PRF.F {
		t.Errorf("no-removal F = %v, full F = %v; removal should help here",
			got.PRF.F, full.PRF.F)
	}
}

// paperExample42 builds Example 4.2's U-side instance: 10 results in U,
// 4 keywords with given benefits; each keyword eliminates a disjoint set of
// results in C with the stated costs.
func paperExample42() *Problem {
	u := newDocSet(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	// C: 13 docs, ids 100.. (k1 eliminates 2, k2 six, k3 one, k4 four —
	// disjoint per the example).
	cIDs := []document.DocID{}
	for i := 100; i < 113; i++ {
		cIDs = append(cIDs, document.DocID(i))
	}
	c := newDocSet(cIDs...)
	universe := c.Union(u)
	elim := map[string]docSet{
		"job":      newDocSet(1, 2, 3, 4, 100, 101),                            // benefit 4, cost 2
		"store":    newDocSet(5, 6, 7, 8, 9, 10, 102, 103, 104, 105, 106, 107), // benefit 6, cost 6
		"location": newDocSet(3, 4, 8, 108),                                    // benefit 3, cost 1
		"fruit":    newDocSet(4, 5, 6, 7, 109, 110, 111, 112),                  // benefit 4, cost 4
	}
	contain := map[string]docSet{}
	for k, e := range elim {
		contain[k] = universe.Subtract(e)
	}
	return newProblemFromSets(search.NewQuery("apple"), c, u, nil, contain)
}

func TestExample42FixedOrderCannotHitSeven(t *testing.T) {
	p := paperExample42()
	// Fixed-order selection picks k3 (3/1) then k1, eliminating {3,4,8} ∪
	// {1,2} = 5 results; the next pick overshoots to 10. The paper's point:
	// 7 is unreachable. Our fixed-order run targeting 70% must therefore
	// miss the target (landing on 5 or 10).
	a := &PEBC{Strategy: SelectFixedOrder}
	q := a.partialElimination(newElimState(p), 70, nil)
	elimCount := 10 - p.retrieveBits(q).AndLen(p.uB)
	if elimCount == 7 {
		t.Errorf("fixed-order eliminated exactly 7 — contradicts Example 4.2")
	}
	if elimCount != 5 && elimCount != 10 {
		t.Errorf("fixed-order eliminated %d, expected 5 or 10", elimCount)
	}
}

func TestExample44SingleResultCanHitSeven(t *testing.T) {
	p := paperExample42()
	// Example 4.4: the single-result procedure can reach exactly 7
	// eliminated results ({k1, k4} -> {1,2,3,4} ∪ {4,5,6,7}). With enough
	// seeds, at least one run must land on exactly 7.
	hit := false
	for seed := int64(0); seed < 40 && !hit; seed++ {
		a := &PEBC{Strategy: SelectSingleResult, Seed: seed}
		q := a.partialElimination(newElimState(p), 70, newRand(seed))
		if 10-p.retrieveBits(q).AndLen(p.uB) == 7 {
			hit = true
		}
	}
	if !hit {
		t.Error("single-result selection never eliminated exactly 7 of 10 across 40 seeds")
	}
}
