package core

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/document"
	"repro/internal/search"
	"repro/internal/seedrand"
)

// SelectionStrategy picks how PEBC generates a sample query that eliminates
// approximately x% of U (the "partial elimination" subproblem).
type SelectionStrategy int

const (
	// SelectSingleResult is the published strategy (§4.3): repeatedly pick
	// a random not-yet-eliminated result of U and the best keyword that
	// eliminates it.
	SelectSingleResult SelectionStrategy = iota
	// SelectFixedOrder is the rejected §4.1 strategy: always take the
	// keyword with the globally best benefit/cost ratio. Kept for the
	// ablation benchmark demonstrating why it cannot hit the x% target.
	SelectFixedOrder
	// SelectSubset is the rejected §4.2 strategy: randomly choose a target
	// subset of x% of U and greedily cover it.
	SelectSubset
)

// String names the strategy for reports.
func (s SelectionStrategy) String() string {
	switch s {
	case SelectFixedOrder:
		return "fixed-order"
	case SelectSubset:
		return "subset"
	default:
		return "single-result"
	}
}

// PEBC is the Partial Elimination Based Convergence algorithm of Section 4.
// It samples queries that eliminate 0%..100% of U in nseg+1 evenly spaced
// targets, then repeatedly zooms into the adjacent pair of samples with the
// highest average F-measure.
type PEBC struct {
	// Segments per iteration (the paper's experiments use 3; Algorithm 2's
	// default is 5). 0 means 3.
	Segments int
	// Iterations of interval zooming (experiments: 3; Algorithm 2: 5).
	// 0 means 3.
	Iterations int
	// Strategy selects the partial-elimination procedure; the zero value is
	// the published §4.3 single-result procedure.
	Strategy SelectionStrategy
	// Seed drives the randomized procedure; runs are deterministic per seed.
	Seed int64
}

// Name implements Expander.
func (a *PEBC) Name() string {
	if a.Strategy == SelectSingleResult {
		return "PEBC"
	}
	return "PEBC-" + a.Strategy.String()
}

func (a *PEBC) defaults() (nseg, nit int) {
	nseg, nit = a.Segments, a.Iterations
	if nseg <= 0 {
		nseg = 3
	}
	if nit <= 0 {
		nit = 3
	}
	return nseg, nit
}

// Expand implements Expander (Algorithm 2).
func (a *PEBC) Expand(p *Problem) Expanded {
	nseg, nit := a.defaults()
	rng := seedrand.New(a.Seed)

	type sample struct {
		x float64
		q search.Query
		f float64
	}

	if p.Trail != nil {
		b, c, _ := p.baseTables()
		p.Trail.Pool = keywordTable(p.Pool, b, c, nil)
	}

	evals := 0
	st := p.elim.Swap(nil)
	if st == nil {
		st = newElimState(p)
	}
	defer p.elim.Store(st)
	gen := func(x float64) sample {
		q := a.partialElimination(st, x, rng)
		evals++
		s := sample{x: x, q: q, f: p.FMeasure(q)}
		if p.Trail != nil {
			p.Trail.Samples = append(p.Trail.Samples, SampleTrail{X: s.x, Terms: s.q.Terms, F: s.f})
		}
		return s
	}

	best := sample{x: 0, q: p.UserQuery, f: p.FMeasure(p.UserQuery)}
	if p.Trail != nil {
		p.Trail.Samples = append(p.Trail.Samples, SampleTrail{X: 0, Terms: best.q.Terms, F: best.f})
	}
	left, right := 0.0, 100.0
	iterations := 0
	for it := 0; it < nit; it++ {
		iterations++
		step := (right - left) / float64(nseg)
		if step <= 0 {
			break
		}
		samples := make([]sample, 0, nseg+1)
		for i := 0; i <= nseg; i++ {
			s := gen(left + float64(i)*step)
			samples = append(samples, s)
			if approxGreater(s.f, best.f) {
				best = s
			}
		}
		// Zoom into the adjacent pair with the highest average F-measure.
		bestPair, bestAvg := 0, -1.0
		for i := 0; i+1 < len(samples); i++ {
			if avg := (samples[i].f + samples[i+1].f) / 2; approxGreater(avg, bestAvg) {
				bestPair, bestAvg = i, avg
			}
		}
		left, right = samples[bestPair].x, samples[bestPair+1].x
	}

	if p.Trail != nil {
		// PEBC keeps no incremental per-keyword table for the winning query;
		// the rejected-alternative view is the shared base table (benefit and
		// cost against the unrefined query) restricted to keywords the
		// winning sample did not use.
		b, c, _ := p.baseTables()
		p.Trail.Rejected = keywordTable(p.Pool, b, c,
			func(ki int) bool { return best.q.Contains(p.Pool[ki]) })
	}
	return Expanded{
		Query:       best.q,
		PRF:         p.Measure(best.q),
		Iterations:  iterations,
		Evaluations: evals,
	}
}

// partialElimination generates a query eliminating approximately x% of the
// total ranking score of U, maximizing retained results in C, using the
// configured strategy. It resets st to x first.
func (a *PEBC) partialElimination(st *elimState, x float64, rng *rand.Rand) search.Query {
	st.reset(x)
	switch a.Strategy {
	case SelectFixedOrder:
		return a.eliminateFixedOrder(st)
	case SelectSubset:
		return a.eliminateSubset(st, rng)
	default:
		return a.eliminateSingleResult(st, rng)
	}
}

// elimState tracks a partial-elimination run in the problem's dense ID
// space. Benefit/cost/count tables are maintained incrementally (copied from
// the Problem's shared base tables and adjusted only for delta results on
// each add), which is what keeps PEBC's per-sample cost low — the efficiency
// property Figure 6 turns on.
//
// One Expand owns one state (the Problem's elim, or a new one) and resets it
// for each of its (nseg+1)·nit sample queries, which would otherwise each pay
// for three universe-sized bitsets, three keyword tables and the remaining-U
// list. reset overwrites every field a run reads, so a reused state is
// indistinguishable from a fresh one and results stay bit-identical.
type elimState struct {
	p          *Problem
	q          search.Query
	r          document.BitSet // R(q)
	remU       []int32         // not-yet-eliminated results of U, ascending dense IDs
	benefit    []float64       // indexed by keyword ID
	cost       []float64
	count      []int
	target     float64 // score of U to eliminate
	eliminated float64 // score of U eliminated so far
	totalU     float64

	// Scratch reused across calls: delta backs add()'s eliminated-results
	// set, aux the per-strategy working set (stuck results / selected
	// subset), cand the candidate list of the single-result strategy.
	delta document.BitSet
	aux   document.BitSet
	cand  []int32
}

// newElimState allocates the partial-elimination state of p; reset readies
// it for a run.
func newElimState(p *Problem) *elimState {
	n := p.nDocs()
	return &elimState{
		p:       p,
		r:       document.NewBitSet(n),
		delta:   document.NewBitSet(n),
		aux:     document.NewBitSet(n),
		benefit: make([]float64, len(p.Pool)),
		cost:    make([]float64, len(p.Pool)),
		count:   make([]int, len(p.Pool)),
	}
}

// reset starts a run that eliminates x% of U's score from the user query.
func (st *elimState) reset(x float64) {
	p := st.p
	st.q = p.UserQuery
	st.r.CopyFrom(p.allB)
	st.aux.Clear()
	st.remU = st.remU[:0]
	p.uB.ForEach(func(di int) { st.remU = append(st.remU, int32(di)) })
	b, c, n := p.baseTables()
	copy(st.benefit, b)
	copy(st.cost, c)
	copy(st.count, n)
	st.totalU = p.sU
	st.eliminated = 0
	st.target = x / 100 * st.totalU
}

// uRemaining returns the not-yet-eliminated results of U in a stable order
// (maintained incrementally; no per-pick sorting).
func (st *elimState) uRemaining() []int32 {
	return st.remU
}

// keywordEffect returns the maintained benefit (score eliminated from U),
// cost (score eliminated from C) and eliminated-result count of keyword ki
// against the current R(q).
func (st *elimState) keywordEffect(ki int) (benefit, cost float64, count int) {
	return st.benefit[ki], st.cost[ki], st.count[ki]
}

// add applies keyword ki, updates the maintained tables for the delta
// results, and returns the U-score it eliminated. All set algebra is
// word-wise; float accumulation folds in ascending dense-ID order.
func (st *elimState) add(ki int) float64 {
	delta := st.delta
	delta.CopyFrom(st.r)
	delta.AndNot(st.p.containB[ki])
	dw := delta.Words()
	uw := st.p.uB.Words()
	var gone float64
	for wi, d := range dw {
		gone = st.p.accum(gone, wi, d&uw[wi])
	}
	st.q = st.q.With(st.p.Pool[ki])
	st.r.AndNot(delta)
	// Compact the remaining-U list in place, preserving order.
	keep := st.remU[:0]
	for _, di := range st.remU {
		if !delta.Contains(int(di)) {
			keep = append(keep, di)
		}
	}
	st.remU = keep
	// Only keywords absent from at least one delta result change value.
	for k2 := range st.benefit {
		cw := st.p.containB[k2].Words()
		var db, dc float64
		n := 0
		for wi, d := range dw {
			x := d &^ cw[wi]
			if x == 0 {
				continue
			}
			n += bits.OnesCount64(x)
			db = st.p.accum(db, wi, x&uw[wi])
			dc = st.p.accum(dc, wi, x&^uw[wi])
		}
		if n != 0 {
			st.benefit[k2] -= db
			st.cost[k2] -= dc
			st.count[k2] -= n
		}
	}
	st.eliminated += gone
	return gone
}

// closerWithout reports whether stopping before the last keyword leaves the
// eliminated fraction closer to the target than including it ("determine
// whether to include the last selected keyword based on which percentage is
// closer to x%").
func closerWithout(before, after, target float64) bool {
	return math.Abs(before-target) <= math.Abs(after-target)
}

// eliminateSingleResult is the published §4.3 procedure, run on a reset st.
func (a *PEBC) eliminateSingleResult(st *elimState, rng *rand.Rand) search.Query {
	p := st.p
	if st.target <= 0 || st.totalU == 0 {
		return st.q
	}
	// Results found to be uneliminable by the current candidate pool; they
	// are skipped rather than aborting the whole procedure.
	stuck := st.aux
	for st.eliminated < st.target {
		st.cand = st.cand[:0]
		for _, di := range st.uRemaining() {
			if !stuck.Contains(int(di)) {
				st.cand = append(st.cand, di)
			}
		}
		if len(st.cand) == 0 {
			break
		}
		r := int(st.cand[rng.Intn(len(st.cand))])
		// Keywords that eliminate r: pool keywords not contained in r.
		bestKi, bestV, bestCount := -1, math.Inf(-1), 0
		for ki := range p.Pool {
			if p.containB[ki].Contains(r) || st.q.Contains(p.Pool[ki]) {
				continue
			}
			b, c, count := st.keywordEffect(ki)
			if b == 0 {
				continue
			}
			v := value(b, c)
			// Tie: prefer the keyword eliminating fewer results ("minimize
			// the risk that we eliminate too many"), then the smaller name.
			if approxGreater(v, bestV) ||
				(approxEqual(v, bestV) && (count < bestCount ||
					(count == bestCount && (bestKi < 0 || ki < bestKi)))) {
				bestKi, bestV, bestCount = ki, v, count
			}
		}
		if bestKi < 0 {
			stuck.Add(r) // r cannot be eliminated; try another result
			continue
		}
		before := st.eliminated
		st.add(bestKi)
		if st.eliminated >= st.target && closerWithout(before, st.eliminated, st.target) && before > 0 {
			// Undo: rebuild without the last keyword (cheaper than a full
			// union-restore given how small these queries are).
			st.q = st.q.Without(p.Pool[bestKi])
			st.r = p.retrieveBits(st.q)
			st.eliminated = before
			break
		}
	}
	return st.q
}

// eliminateFixedOrder is the rejected §4.1 greedy: always the globally best
// benefit/cost keyword.
func (a *PEBC) eliminateFixedOrder(st *elimState) search.Query {
	p := st.p
	if st.target <= 0 || st.totalU == 0 {
		return st.q
	}
	for st.eliminated < st.target {
		bestKi, bestV := -1, math.Inf(-1)
		for ki := range p.Pool {
			if st.q.Contains(p.Pool[ki]) {
				continue
			}
			b, c, _ := st.keywordEffect(ki)
			if b == 0 {
				continue
			}
			if v := value(b, c); approxGreater(v, bestV) ||
				(approxEqual(v, bestV) && (bestKi < 0 || ki < bestKi)) {
				bestKi, bestV = ki, v
			}
		}
		if bestKi < 0 {
			break
		}
		before := st.eliminated
		st.add(bestKi)
		if st.eliminated >= st.target && closerWithout(before, st.eliminated, st.target) && before > 0 {
			st.q = st.q.Without(p.Pool[bestKi])
			st.r = p.retrieveBits(st.q)
			st.eliminated = before
			break
		}
	}
	return st.q
}

// eliminateSubset is the rejected §4.2 procedure: choose a random subset S
// of U whose score is ≈x% of U's, then greedily pick keywords covering S,
// counting eliminations outside S as extra cost (Example 4.3).
func (a *PEBC) eliminateSubset(st *elimState, rng *rand.Rand) search.Query {
	p := st.p
	if st.target <= 0 || st.totalU == 0 {
		return st.q
	}
	// Randomly select S. The shuffle runs over U's dense IDs in ascending
	// order — the same length and order as U's sorted DocIDs — so it makes
	// the same rng draws and picks the same documents.
	ids := p.uB.IDs()
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	selected := st.aux
	var got float64
	for _, di := range ids {
		if got >= st.target {
			break
		}
		selected.Add(di)
		got += p.weightAt(di)
	}
	// Greedy cover of S: keyword covering the most remaining S-score with
	// the best adjusted benefit/cost.
	sw := selected.Words()
	for {
		if st.r.AndLen(selected) == 0 {
			break // S fully covered
		}
		bestKi, bestV := -1, math.Inf(-1)
		for ki := range p.Pool {
			if st.q.Contains(p.Pool[ki]) {
				continue
			}
			cw := p.containB[ki].Words()
			var b, c float64
			for wi, rw := range st.r.Words() {
				x := rw &^ cw[wi]
				if x == 0 {
					continue
				}
				// Eliminating a selected result is the benefit; eliminating
				// C or unselected U results is cost.
				b = st.p.accum(b, wi, x&sw[wi])
				c = st.p.accum(c, wi, x&^sw[wi])
			}
			if b == 0 {
				continue
			}
			if v := value(b, c); approxGreater(v, bestV) ||
				(approxEqual(v, bestV) && (bestKi < 0 || ki < bestKi)) {
				bestKi, bestV = ki, v
			}
		}
		if bestKi < 0 {
			break
		}
		st.add(bestKi)
	}
	return st.q
}

// SampleTargets returns the elimination percentages PEBC would probe in its
// first iteration — exported for tests and the ablation harness.
func (a *PEBC) SampleTargets() []float64 {
	nseg, _ := a.defaults()
	out := make([]float64, 0, nseg+1)
	step := 100.0 / float64(nseg)
	for i := 0; i <= nseg; i++ {
		out = append(out, float64(i)*step)
	}
	sort.Float64s(out)
	return out
}
