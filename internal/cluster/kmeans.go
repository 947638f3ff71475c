package cluster

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/document"
	"repro/internal/par"
	"repro/internal/seedrand"
)

// Clustering is the output of a k-means run: an assignment of the input
// documents into non-empty clusters.
type Clustering struct {
	// Clusters holds the document IDs of each cluster, sorted ascending.
	Clusters []([]document.DocID)
	// Assign holds the cluster ordinal of each clustered document, by its
	// position in the docs slice the clustering ran over.
	Assign []int
	// Distortion is the final sum of cosine distances to assigned centroids.
	Distortion float64
	// Iterations is the number of refinement rounds performed.
	Iterations int
	// Restarts, TotalIterations and AbandonedRestarts are the k-means
	// driver's bookkeeping: restarts launched, iterations summed across all
	// of them, and restarts abandoned early (serving mode only). They feed
	// the telemetry layer and never influence the clustering itself.
	Restarts, TotalIterations, AbandonedRestarts int
}

// Sets returns the clusters as bitsets over positions in the clustered docs
// slice — the dense document IDs of the universe the clustering ran over.
func (c *Clustering) Sets() []document.BitSet {
	out := make([]document.BitSet, len(c.Clusters))
	for i := range out {
		out[i] = document.NewBitSet(len(c.Assign))
	}
	for i, ci := range c.Assign {
		out[ci].Add(i)
	}
	return out
}

// K returns the number of clusters.
func (c *Clustering) K() int { return len(c.Clusters) }

// Quality is the one ordered effort level of a k-means run: each level
// spends no more than the one before it (exact < serving < minimal).
type Quality int

const (
	// QualityExact is the default: every restart requested by Options runs
	// to convergence. Output is bit-identical to the historical sparse
	// merge-join implementation for a fixed seed (pinned by the kmeans
	// golden file).
	QualityExact Quality = iota
	// QualityServing trades a deterministic accuracy delta for latency: at
	// most servingRestarts restarts, and a restart whose running distortion
	// already exceeds the best completed restart's is abandoned.
	// Deterministic for a fixed seed — runs always produce the same
	// clustering — but not bit-comparable to QualityExact, which keeps more
	// restarts and abandons none.
	QualityServing
	// QualityMinimal runs one restart, exactly as QualityExact runs its
	// first. The degradation ladder's T2 and T3 tiers apply it; it has no
	// wire name.
	QualityMinimal
)

// servingRestarts caps restarts in QualityServing mode.
const servingRestarts = 2

var qualityNames = [...]string{"exact", "serving", "minimal"}

// Valid reports whether q is one of the defined levels.
func (q Quality) Valid() bool { return q >= QualityExact && q <= QualityMinimal }

// String names the level ("exact" / "serving" / "minimal").
func (q Quality) String() string {
	if !q.Valid() {
		return "Quality(" + strconv.Itoa(int(q)) + ")"
	}
	return qualityNames[q]
}

// Options configures k-means.
type Options struct {
	// K is the requested number of clusters (an upper bound per Section 1:
	// "k is an upper bound specified by the user"; empty clusters are
	// dropped).
	K int
	// MaxIter bounds refinement rounds. Default 50.
	MaxIter int
	// Seed makes runs reproducible.
	Seed int64
	// PlusPlus enables k-means++ seeding instead of uniform sampling.
	PlusPlus bool
	// Restarts runs the whole algorithm this many times with derived seeds
	// and keeps the clustering with the lowest distortion. 0 or 1 means a
	// single run. Restarts share one vector set. In QualityExact every
	// restart runs to convergence on its own (the selection is bit-identical
	// to a serial loop); QualityServing advances its restarts in
	// deterministic lockstep rounds and abandons a restart whose running
	// distortion already exceeds the best completed restart's.
	Restarts int
	// Quality selects the effort level (default QualityExact); it caps
	// Restarts and switches on early abandonment.
	Quality Quality
	// Ctx, when non-nil, is checked before each iteration: once it is
	// cancelled the driver stops stepping and returns immediately, so a
	// disconnected client frees its worker mid-run instead of finishing a
	// clustering nobody reads. The returned clustering is then partial —
	// callers must check Ctx.Err() and discard it. Cancellation never
	// changes the output of a run that completes: the check only ever stops
	// work, it reorders none.
	Ctx context.Context
	// Trail, when non-nil, receives the per-restart decision record (seed,
	// iterations, final distortion, abandoned, winner) after the drive
	// completes — the EXPLAIN surface. Recording is post-hoc bookkeeping
	// only: it never touches the clustering arithmetic, so runs with and
	// without a trail are bit-identical.
	Trail *Trail
}

// Trail is the clustering leg of a query EXPLAIN: one entry per restart the
// driver launched, in restart index order.
type Trail struct {
	Restarts []RestartTrail
}

// RestartTrail describes one restart's fate.
type RestartTrail struct {
	// Seed is the restart's derived RNG seed (base seed + index·7919).
	Seed int64
	// Iterations is how many refinement rounds the restart ran before
	// converging, hitting MaxIter, or being abandoned.
	Iterations int
	// Distortion is the restart's final (or at-abandonment) distortion.
	Distortion float64
	// Abandoned marks restarts the serving-mode driver cut early.
	Abandoned bool
	// Won marks the restart whose clustering was selected.
	Won bool
}

func (o *Options) defaults() {
	if o.MaxIter <= 0 {
		o.MaxIter = 50
	}
	if o.K <= 0 {
		o.K = 2
	}
}

// KMeansVecs clusters documents by the cosine distance of their TF vectors:
// vecs[i] is the vector of docs[i] over a dim-sized TermID space (what
// VectorsFromDocs builds; the expansion pipeline takes them from its
// universe snapshot, which shares them with problem construction). The
// vectors are treated as read-only. Empty input yields an empty clustering.
//
// Deterministic for a fixed seed regardless of worker count: per-point work
// is data-parallel, every floating-point reduction (distortion, the D²
// total) is accumulated serially in index order after the parallel phase,
// restarts own disjoint state, and the winner is picked by a serial scan in
// restart index order. Only serving mode with two or more restarts, where
// one restart's progress can abandon another, advances them in lockstep
// rounds (see kmeansDrive).
//
// The restarts run in the call's local term space (see termSpace): the
// union of the vectors' TermIDs renumbered densely in ascending order.
// Centroids are dense []float64 over that space (see centroid), so every
// point·centroid distance is a branch-free gather over the point's IDs. In
// QualityExact mode the output is bit-identical to the sparse merge-join
// implementation (pinned by the kmeans golden file); the higher levels trade
// a deterministic accuracy delta for latency (fewer restarts, early
// abandonment). Every level runs the same per-restart arithmetic.
func KMeansVecs(dim int, vecs []*Vector, docs []document.DocID, opts Options) *Clustering {
	opts.defaults()
	n := len(docs)
	if n == 0 {
		return &Clustering{}
	}
	restarts := max(opts.Restarts, 1)
	switch opts.Quality {
	case QualityServing:
		restarts = min(restarts, servingRestarts)
	case QualityMinimal:
		restarts = 1
	}
	// Early abandonment is a serving trade: distortion under the
	// mean-update/cosine iteration is not strictly monotone, so a restart
	// that currently trails the best completed one can still end up winning —
	// abandoning it is deterministic but (rarely) selects a slightly worse
	// clustering. Exact mode therefore runs every restart to convergence.
	return kmeansDrive(dim, vecs, docs, opts, restarts, opts.Quality != QualityExact && restarts > 1)
}

// kmeansDrive runs restarts k-means runs over the shared vectors and returns
// the best clustering: the first restart, in index order, with the lowest
// distortion. Every buffer of the drive comes from one pooled scratch.
//
// With abandon off no restart reads another's progress, so one par.For over
// the restarts seeds each and steps it to convergence, checking opts.Ctx
// before every iteration.
//
// Lockstep is the determinism mechanism for early abandonment (abandon is
// only set in serving mode with two or more restarts): each round advances
// every live restart by one iteration (fanned through par.For), then
// bookkeeping runs serially in restart index order, so "which restarts had
// completed when restart r was checked" is a pure function of the iteration
// counts, never of goroutine timing. A restart is abandoned when its running
// distortion strictly exceeds the best completed restart's final distortion.
// Every restart's own arithmetic is the same in both drives.
func kmeansDrive(dim int, vecs []*Vector, docs []document.DocID, opts Options,
	restarts int, abandon bool) *Clustering {

	s := scratchPool.Get().(*scratch)
	defer s.release()
	runs := s.prepare(dim, vecs, opts, restarts)
	if abandon {
		lockstep(opts.Ctx, runs)
	} else {
		par.For(len(runs), func(r int) {
			st := &runs[r]
			st.seed()
			for !st.done {
				if ctx := opts.Ctx; ctx != nil && ctx.Err() != nil {
					return
				}
				st.step()
			}
		})
	}

	var best *runState
	for r := range runs {
		st := &runs[r]
		if st.abandoned {
			continue
		}
		if best == nil || st.distortion < best.distortion {
			best = st
		}
	}
	cl := buildClustering(docs, best.assign, best.k, best.distortion, best.iters)
	cl.Restarts = restarts
	if opts.Trail != nil {
		opts.Trail.Restarts = make([]RestartTrail, restarts)
	}
	for r := range runs {
		st := &runs[r]
		cl.TotalIterations += st.iters
		if st.abandoned {
			cl.AbandonedRestarts++
		}
		if opts.Trail != nil {
			opts.Trail.Restarts[r] = RestartTrail{
				Seed:       st.rngSeed,
				Iterations: st.iters,
				Distortion: st.distortion,
				Abandoned:  st.abandoned,
				Won:        st == best,
			}
		}
	}
	return cl
}

// lockstep seeds runs, then advances them in rounds until every run is done
// or abandoned, or ctx is cancelled.
func lockstep(ctx context.Context, runs []runState) {
	par.For(len(runs), func(r int) { runs[r].seed() })
	bestDone := math.Inf(1)
	hasDone := false
	live := make([]*runState, 0, len(runs))
	for {
		// Round boundary: a cancelled request stops the drive right here —
		// between rounds, never inside one, so a run that finishes is
		// bit-identical whether or not a context was attached.
		if ctx != nil && ctx.Err() != nil {
			return
		}
		live = live[:0]
		for r := range runs {
			if st := &runs[r]; !st.done && !st.abandoned {
				live = append(live, st)
			}
		}
		if len(live) == 0 {
			return
		}
		par.For(len(live), func(i int) { live[i].step() })
		// Serial bookkeeping in restart index order: completions first, then
		// abandonment against the updated best.
		for r := range runs {
			if st := &runs[r]; st.done && st.distortion < bestDone {
				bestDone = st.distortion
				hasDone = true
			}
		}
		if hasDone {
			for r := range runs {
				if st := &runs[r]; !st.done && st.distortion > bestDone {
					st.abandoned = true
				}
			}
		}
	}
}

// scratch holds every buffer of one drive: the local term space and each
// run's centroids, assignment, distances and groups, carved from a few
// slabs. scratchPool hands one to each drive, so a steady stream of
// requests reuses the same memory instead of allocating it per restart. No
// returned Clustering aliases it (buildClustering copies).
type scratch struct {
	// Pointer-free slabs: reused as they are.
	words  []spaceWord
	arena  []int32
	floats []float64
	ints   []int
	// Pointer-holding slabs: release clears them, or the pool would keep
	// the last request's vectors (and their weight arenas) live.
	local   []Vector
	vecs    []*Vector
	members []*Vector
	groups  [][]*Vector
	cents   []centroid
	runs    []runState
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release clears every pointer-holding slab and returns s to the pool.
func (s *scratch) release() {
	clear(s.local)
	clear(s.vecs)
	clear(s.members)
	clear(s.groups)
	clear(s.cents)
	clear(s.runs)
	scratchPool.Put(s)
}

// fit returns (*buf)[:n], replacing *buf by a fresh n-element slice when its
// capacity is short.
func fit[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// take cuts the next n elements off *slab, capacity-limited so appends can
// never run into a neighbour.
func take[T any](slab *[]T, n int) []T {
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// prepare builds the local term space of vecs and carves restarts unseeded
// runs from s, run r with the derived seed opts.Seed + r·7919.
func (s *scratch) prepare(dim int, vecs []*Vector, opts Options, restarts int) []runState {
	sp := s.termSpace(dim, vecs)
	n, l := len(sp.vecs), sp.size
	k := min(opts.K, n)
	// Per run: k centroids' cells plus the spare accumulator, and dists.
	floats := fit(&s.floats, restarts*((k+1)*l+n))
	// Per run: the assignment and the group sizes. A run cancelled before
	// its first step is still read by the winner scan, so its assignment
	// must name valid clusters.
	ints := fit(&s.ints, restarts*(n+k))
	clear(ints)
	members := fit(&s.members, restarts*n)
	groups := fit(&s.groups, restarts*k)
	cents := fit(&s.cents, restarts*k)
	runs := fit(&s.runs, restarts)
	for r := range runs {
		st := &runs[r]
		*st = runState{
			vecs:     sp.vecs,
			k:        k,
			maxIter:  opts.MaxIter,
			plusPlus: opts.PlusPlus,
			rngSeed:  opts.Seed + int64(r)*7919, // distinct derived seeds
			cents:    take(&cents, k),
			groups:   take(&groups, k),
			members:  take(&members, n),
			sizes:    take(&ints, k),
			assign:   take(&ints, n),
			dists:    take(&floats, n),
		}
		for c := range st.cents {
			st.cents[c] = centroid{vals: take(&floats, l)}
		}
		st.acc = take(&floats, l)
	}
	return runs
}

// runState is one k-means run, seeded by seed and advanced by step. All
// fields are owned by the run; the lockstep driver only reads distortion /
// done / abandoned at round boundaries.
type runState struct {
	vecs     []*Vector // over the local term space
	k        int
	maxIter  int
	plusPlus bool
	rngSeed  int64

	cents  []centroid
	acc    []float64 // the spare L-cell buffer the next centroid update fills
	assign []int
	// dists holds each point's distance to its centroid; k-means++ seeding
	// keeps the nearest-centroid distances there until the first
	// assignment overwrites them.
	dists []float64
	// groups[c] lists centroid c's points in index order, a contiguous run
	// of members of length sizes[c].
	groups  [][]*Vector
	members []*Vector
	sizes   []int

	distortion float64
	iters      int
	done       bool
	abandoned  bool
}

// overRanges calls body(st, c, lo, hi) on ranges that cover the run's
// points and reports whether any call returned true. Below par.MinChunk it
// makes one direct call and, body being a method expression, allocates
// nothing; only larger sets build the closure par.Chunks needs.
func (st *runState) overRanges(c int, body func(st *runState, c, lo, hi int) bool) bool {
	n := len(st.vecs)
	if n < par.MinChunk {
		return body(st, c, 0, n)
	}
	var hit atomic.Bool
	par.Chunks(n, func(lo, hi int) {
		if body(st, c, lo, hi) {
			hit.Store(true)
		}
	})
	return hit.Load()
}

// seed places the run's initial centroids (uniform or k-means++) exactly
// like the sparse implementation: the rng draw sequence is unchanged
// because every distance the D² scan consumes is bit-identical to its
// merge-join counterpart.
func (st *runState) seed() {
	rng := seedrand.New(st.rngSeed)
	if st.plusPlus {
		st.seedPlusPlus(rng)
		return
	}
	perm := rng.Perm(len(st.vecs))
	for c := range st.cents {
		st.cents[c].setFromVector(st.vecs[perm[c]])
	}
}

// seedPlusPlus implements k-means++ seeding under cosine distance. The
// nearest-centroid distance of every point is maintained incrementally (a
// left-fold min, exactly the scan order of the full rescan it replaces) and
// the per-round update against the newest centroid runs over ranges; the D²
// total is then summed serially in index order, so the rng draw sequence —
// and hence the seeding — matches the sparse implementation bit for bit.
func (st *runState) seedPlusPlus(rng *rand.Rand) {
	vecs, best := st.vecs, st.dists
	n := len(vecs)
	st.cents[0].setFromVector(vecs[rng.Intn(n)])
	if st.k > 1 {
		st.overRanges(0, (*runState).foldRange)
	}
	for placed := 1; placed < st.k; placed++ {
		total := 0.0
		for _, b := range best {
			total += b * b
		}
		var pickVec *Vector
		if total == 0 {
			// All points coincide with existing centroids; duplicate one.
			pickVec = vecs[rng.Intn(n)]
		} else {
			r := rng.Float64() * total
			acc := 0.0
			pick := n - 1
			for i, b := range best {
				acc += b * b
				if acc >= r {
					pick = i
					break
				}
			}
			pickVec = vecs[pick]
		}
		st.cents[placed].setFromVector(pickVec)
		if placed+1 < st.k {
			st.overRanges(placed, (*runState).foldRange) // the last centroid seeds no further round
		}
	}
}

// foldRange merges the newly placed centroid c into the nearest-centroid
// distances in dists over [lo, hi); centroid 0 initializes them. Placing in
// order keeps them equal to the scalar implementation's per-round left-fold
// over all centroids (min via strict <, no arithmetic), bit for bit.
func (st *runState) foldRange(c, lo, hi int) bool {
	cent := &st.cents[c]
	for i := lo; i < hi; i++ {
		if d := cent.cosDist(st.vecs[i]); c == 0 || d < st.dists[i] {
			st.dists[i] = d
		}
	}
	return false
}

// step advances the run by one iteration: assignment, distortion reduction,
// convergence check, centroid update. Mirrors the historical kmeansRun loop
// body exactly (including breaking before the centroid update on
// convergence / MaxIter exhaustion).
func (st *runState) step() {
	iter := st.iters
	st.iters++

	changed := st.overRanges(0, (*runState).assignRange)

	// Serial reduction in index order keeps the distortion bit-identical to
	// the scalar loop's running sum.
	d := 0.0
	for _, x := range st.dists {
		d += x
	}
	st.distortion = d

	if (!changed && iter > 0) || st.iters >= st.maxIter {
		st.done = true
		return
	}

	// Recompute centroids from the new assignment, regrouping by counting
	// sort: each group keeps its points in index order.
	clear(st.sizes)
	for _, c := range st.assign {
		st.sizes[c]++
	}
	start := 0
	for c, size := range st.sizes {
		st.groups[c] = st.members[start : start : start+size]
		start += size
	}
	for i, v := range st.vecs {
		st.groups[st.assign[i]] = append(st.groups[st.assign[i]], v)
	}
	for c := range st.cents {
		if len(st.groups[c]) == 0 {
			// Empty centroid: keep previous position; the cluster will be
			// dropped at the end if it stays empty.
			continue
		}
		st.acc = st.cents[c].setMean(st.groups[c], st.acc)
	}
}

// assignRange reassigns the points of [lo, hi) to their nearest centroid
// and reports whether any assignment changed. Ranges are disjoint and only
// read the shared centroids, so the step is race-free and its output
// independent of the worker count.
func (st *runState) assignRange(_, lo, hi int) bool {
	vecs, cents := st.vecs, st.cents
	changed := false
	for i := lo; i < hi; i++ {
		v := vecs[i]
		best, bestD := 0, cents[0].cosDist(v)
		for c := 1; c < len(cents); c++ {
			if d := cents[c].cosDist(v); d < bestD {
				best, bestD = c, d
			}
		}
		if st.assign[i] != best {
			st.assign[i] = best
			changed = true
		}
		st.dists[i] = bestD
	}
	return changed
}

// buildClustering converts an assignment array into a Clustering, dropping
// empty clusters and renumbering. One array holds every cluster's IDs, each
// cluster a capacity-capped run of it.
func buildClustering(docs []document.DocID, assign []int, k int, distortion float64, iters int) *Clustering {
	sizes := make([]int, k)
	for _, c := range assign {
		sizes[c]++
	}
	byCluster := make([][]document.DocID, k)
	all := make([]document.DocID, len(docs))
	start := 0
	for c, size := range sizes {
		byCluster[c] = all[start : start : start+size]
		start += size
	}
	for i, id := range docs {
		c := assign[i]
		byCluster[c] = append(byCluster[c], id)
	}
	out := &Clustering{Clusters: make([][]document.DocID, 0, k), Assign: make([]int, len(docs)),
		Distortion: distortion, Iterations: iters}
	ord := sizes // the sizes are spent; reuse the slice for the ordinals
	for c, ids := range byCluster {
		if len(ids) == 0 {
			continue
		}
		slices.Sort(ids)
		ord[c] = len(out.Clusters)
		out.Clusters = append(out.Clusters, ids)
	}
	for i, c := range assign {
		out.Assign[i] = ord[c]
	}
	return out
}
