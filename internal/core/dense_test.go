package core

// Property tests pinning the dense-ID/bitset Problem to the map-backed
// reference of reference_test.go: on randomized problems, every dense-path
// result must equal (bit-for-bit where floats are involved) a
// straightforward computation over the reference's maps.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
	"repro/internal/search"
)

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
		r := randomRef(seed, 6+int(seed%7), 9+int(seed%5), 12, seed%2 == 0)
		p := r.p
		rng := rand.New(rand.NewSource(seed + 100))
		for trial := 0; trial < 20; trial++ {
			q := randomPoolQuery(p, rng)
			if got, want := r.set(p.retrieveBits(q)), r.retrieve(q); !got.Equal(want) {
				t.Fatalf("seed %d: retrieveBits(%v) = %v, want %v",
					seed, q.Terms, got.IDs(), want.IDs())
			}
			if got, want := r.set(p.retrieveORBits(q)), r.retrieveOR(q); !got.Equal(want) {
				t.Fatalf("seed %d: retrieveORBits(%v) = %v, want %v",
					seed, q.Terms, got.IDs(), want.IDs())
			}
		}
	}
}

func TestDenseMeasureMatchesEvalMeasure(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		r := randomRef(seed, 6+int(seed%7), 9+int(seed%5), 12, seed%2 == 1)
		p := r.p
		rng := rand.New(rand.NewSource(seed + 200))
		for trial := 0; trial < 20; trial++ {
			q := randomPoolQuery(p, rng)
			got := p.Measure(q)
			want := refMeasure(r.retrieve(q), r.c, r.w)
			// The reference sums in sorted-ID order, exactly like the dense
			// fold, so the comparison is exact — not approximate.
			if got != want {
				t.Fatalf("seed %d: Measure(%v) = %+v, want %+v (bit-exact)",
					seed, q.Terms, got, want)
			}
			orWant := refMeasure(r.retrieveOR(q), r.c, r.w)
			if got := p.MeasureOR(q); got != orWant {
				t.Fatalf("seed %d: MeasureOR(%v) = %+v, want %+v (bit-exact)",
					seed, q.Terms, got, orWant)
			}
		}
	}
}

func TestDenseBaseTablesMatchReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := randomRef(seed, 8, 12, 14, seed%2 == 0)
		p := r.p
		benefit, cost, count := p.baseTables()
		for ki, k := range p.Pool {
			// E(k) ∩ Universe: the universe documents k eliminates.
			elim := r.all.Subtract(r.contain[k])
			b, c := refS(r.w, elim.Intersect(r.u)), refS(r.w, elim.Subtract(r.u))
			if benefit[ki] != b || cost[ki] != c || count[ki] != elim.Len() {
				t.Fatalf("seed %d keyword %q: base table %v/%v/%d, want %v/%v/%d",
					seed, k, benefit[ki], cost[ki], count[ki], b, c, elim.Len())
			}
		}
	}
}

func TestDenseSumMatchesWeightsS(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := randomRef(seed, 10, 12, 8, true)
		if got, want := r.p.sC, refS(r.w, r.c); got != want {
			t.Fatalf("seed %d: sC = %v, want %v", seed, got, want)
		}
		if got, want := r.p.sU, refS(r.w, r.u); got != want {
			t.Fatalf("seed %d: sU = %v, want %v", seed, got, want)
		}
	}
}

// TestDenseContainsAgreesWithContainSet checks the dense incidence — C, U
// and each pool keyword's bitmap — against the reference's maps, document by
// document in dense-ID order.
func TestDenseContainsAgreesWithContainSet(t *testing.T) {
	r := randomRef(3, 10, 15, 12, false)
	p := r.p
	if len(r.ids) != p.nDocs() || p.allB.Len() != p.nDocs() {
		t.Fatalf("universe: %d ids, %d dense docs, %d members", len(r.ids), p.nDocs(), p.allB.Len())
	}
	for di, id := range r.ids {
		if di > 0 && r.ids[di-1] >= id {
			t.Fatalf("dense IDs not in ascending DocID order at %d", di)
		}
		if p.cB.Contains(di) != r.c.Contains(id) || p.uB.Contains(di) != r.u.Contains(id) {
			t.Fatalf("doc %d: C/U membership disagrees with the reference", id)
		}
		for ki, k := range p.Pool {
			if got, want := p.containB[ki].Contains(di), r.contain[k].Contains(id); got != want {
				t.Fatalf("contains(%d, %q) = %t, want %t", id, k, got, want)
			}
		}
	}
	if _, ok := p.kwID("no-such-keyword"); ok {
		t.Error("a non-pool keyword must have no keyword ID")
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
