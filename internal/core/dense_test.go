package core

// Property tests pinning the dense-ID/bitset representation to the map-based
// DocSet semantics it replaced: on randomized problems, every dense-path
// result must equal (bit-for-bit where floats are involved) a straightforward
// reference computation over the public DocSet API.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/document"
	"repro/internal/eval"
	"repro/internal/par"
	"repro/internal/search"
)

// refRetrieve recomputes R(q) the pre-bitset way: clone the universe and
// filter by per-term DocSet membership.
func refRetrieve(p *Problem, q search.Query) document.DocSet {
	r := p.Universe.Clone()
	for _, term := range q.Terms {
		if p.UserQuery.Contains(term) {
			continue
		}
		set := p.ContainSet(term)
		if set == nil {
			return document.DocSet{}
		}
		for id := range r {
			if !set.Contains(id) {
				r.Remove(id)
			}
		}
	}
	return r
}

func randomPoolQuery(p *Problem, rng *rand.Rand) search.Query {
	q := p.UserQuery
	for _, k := range p.Pool {
		if rng.Float64() < 0.3 {
			q = q.With(k)
		}
	}
	return q
}

func TestDenseRetrieveMatchesDocSetReference(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		p := randomProblem(seed, 6+int(seed%7), 9+int(seed%5), 12, seed%2 == 0)
		rng := rand.New(rand.NewSource(seed + 100))
		for trial := 0; trial < 20; trial++ {
			q := randomPoolQuery(p, rng)
			if got, want := p.Retrieve(q), refRetrieve(p, q); !got.Equal(want) {
				t.Fatalf("seed %d: Retrieve(%v) = %v, want %v",
					seed, q.Terms, got.IDs(), want.IDs())
			}
			// OR retrieval: union of the term DocSets.
			wantOR := document.DocSet{}
			for _, term := range q.Terms {
				for id := range p.ContainSet(term) {
					wantOR.Add(id)
				}
			}
			if got := p.RetrieveOR(q); !got.Equal(wantOR) {
				t.Fatalf("seed %d: RetrieveOR(%v) = %v, want %v",
					seed, q.Terms, got.IDs(), wantOR.IDs())
			}
		}
	}
}

func TestDenseMeasureMatchesEvalMeasure(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		p := randomProblem(seed, 6+int(seed%7), 9+int(seed%5), 12, seed%2 == 1)
		rng := rand.New(rand.NewSource(seed + 200))
		for trial := 0; trial < 20; trial++ {
			q := randomPoolQuery(p, rng)
			got := p.Measure(q)
			want := eval.Measure(refRetrieve(p, q), p.C, p.Weights)
			// The reference sums in sorted-ID order, exactly like the dense
			// fold, so the comparison is exact — not approximate.
			if got != want {
				t.Fatalf("seed %d: Measure(%v) = %+v, want %+v (bit-exact)",
					seed, q.Terms, got, want)
			}
		}
	}
}

func TestDenseBaseTablesMatchReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		p := randomProblem(seed, 8, 12, 14, seed%2 == 0)
		benefit, cost, count := p.baseTables()
		for ki, k := range p.Pool {
			contain := p.ContainSet(k)
			var b, c float64
			n := 0
			for _, id := range p.Universe.IDs() {
				if contain.Contains(id) {
					continue
				}
				n++
				w := 1.0
				if p.Weights != nil {
					if wv, ok := p.Weights[id]; ok && wv > 0 {
						w = wv
					}
				}
				if p.U.Contains(id) {
					b += w
				} else {
					c += w
				}
			}
			if benefit[ki] != b || cost[ki] != c || count[ki] != n {
				t.Fatalf("seed %d keyword %q: base table %v/%v/%d, want %v/%v/%d",
					seed, k, benefit[ki], cost[ki], count[ki], b, c, n)
			}
		}
	}
}

func TestDenseSumMatchesWeightsS(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		p := randomProblem(seed, 10, 12, 8, true)
		if got, want := p.sC, p.Weights.S(p.C); got != want {
			t.Fatalf("seed %d: sC = %v, want %v", seed, got, want)
		}
		if got, want := p.sU, p.Weights.S(p.U); got != want {
			t.Fatalf("seed %d: sU = %v, want %v", seed, got, want)
		}
	}
}

func TestDenseContainsAgreesWithContainSet(t *testing.T) {
	p := randomProblem(3, 10, 15, 12, false)
	for _, k := range p.Pool {
		set := p.ContainSet(k)
		for _, id := range p.Universe.IDs() {
			if got, want := p.Contains(id, k), set.Contains(id); got != want {
				t.Fatalf("Contains(%d, %q) = %t, want %t", id, k, got, want)
			}
		}
	}
	if p.Contains(0, "no-such-keyword") {
		t.Error("Contains must be false for non-pool keywords")
	}
	if p.Contains(999999, p.Pool[0]) {
		t.Error("Contains must be false for non-universe documents")
	}
}

// TestSolveParallelDeterminism runs Solve (which fans per-cluster work
// through par.For) repeatedly at one to four workers and demands output
// identical to the serial run, including bit-identical scores — index-order
// collection must make the fan-out invisible.
func TestSolveParallelDeterminism(t *testing.T) {
	problems := []*Problem{
		randomProblem(1, 8, 10, 10, true),
		randomProblem(2, 9, 11, 10, false),
		randomProblem(3, 7, 12, 10, true),
		randomProblem(4, 10, 9, 10, false),
	}
	solve := func(workers int) *QECResult {
		defer par.SetWorkersForTest(workers)()
		return Solve(&ISKR{}, problems)
	}
	base := solve(1)
	for trial := 0; trial < 8; trial++ {
		got := solve(1 + trial%len(problems))
		if math.Float64bits(got.Score) != math.Float64bits(base.Score) {
			t.Fatalf("trial %d: score %v != %v", trial, got.Score, base.Score)
		}
		for i := range base.Expansions {
			if got.Expansions[i].Expanded.Query.String() != base.Expansions[i].Expanded.Query.String() {
				t.Fatalf("trial %d cluster %d: query %v != %v", trial, i,
					got.Expansions[i].Expanded.Query.Terms,
					base.Expansions[i].Expanded.Query.Terms)
			}
		}
	}
}
