package core

// Tests for the paper-adjacent extensions: OR semantics (the paper's
// appendix problem) and interleaved clustering+expansion (named in Section
// 7's future work).

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/document"
	"repro/internal/index"
	"repro/internal/search"
)

func TestORISKRPerfectCover(t *testing.T) {
	// Two keywords jointly cover the cluster exactly; OR-ISKR must find
	// them and score F=1.
	c := newDocSet(1, 2, 3, 4)
	u := newDocSet(10, 11, 12)
	contain := map[string]docSet{
		"left":  newDocSet(1, 2),
		"right": newDocSet(3, 4),
		"bad":   newDocSet(1, 10, 11, 12),
	}
	p := newProblemFromSets(search.NewQuery("seed"), c, u, nil, contain)
	got := (&ORISKR{}).Expand(p)
	if got.PRF.F != 1 {
		t.Fatalf("F = %v, query = %v", got.PRF.F, got.Query.Terms)
	}
	if !got.Query.Contains("left") || !got.Query.Contains("right") || got.Query.Contains("bad") {
		t.Errorf("query = %v, want {left right}", got.Query.Terms)
	}
}

func TestORISKRRemovalHelps(t *testing.T) {
	// "wide" covers most of C but drags in U; adding the two precise
	// keywords afterwards makes "wide" removable.
	c := newDocSet(1, 2, 3, 4, 5, 6)
	u := newDocSet(10, 11)
	contain := map[string]docSet{
		"wide":  newDocSet(1, 2, 3, 4, 5, 10, 11),
		"left":  newDocSet(1, 2, 3),
		"right": newDocSet(4, 5, 6),
	}
	p := newProblemFromSets(search.NewQuery("seed"), c, u, nil, contain)
	got := (&ORISKR{}).Expand(p)
	if got.Query.Contains("wide") {
		t.Errorf("query %v retains the imprecise keyword", got.Query.Terms)
	}
	if got.PRF.F != 1 {
		t.Errorf("F = %v", got.PRF.F)
	}
}

func TestORISKRTerminatesOnRandomInstances(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		p := randomProblem(300+seed, 10, 12, 10, seed%2 == 0)
		got := (&ORISKR{}).Expand(p)
		if got.PRF.Precision < 0 || got.PRF.Recall < 0 {
			t.Fatalf("seed %d: bad PRF %+v", seed, got.PRF)
		}
		// The reported PRF must be consistent with OR retrieval.
		if !prfClose(got.PRF, p.MeasureOR(got.Query)) {
			t.Fatalf("seed %d: PRF mismatch", seed)
		}
	}
}

func TestRetrieveORIsMonotone(t *testing.T) {
	p := randomProblem(7, 8, 10, 8, false)
	q := search.NewQuery()
	prev := p.retrieveORBits(q)
	if prev.Len() != 0 {
		t.Fatal("empty OR query should retrieve nothing")
	}
	for _, k := range p.Pool[:5] {
		q = q.With(k)
		cur := p.retrieveORBits(q)
		if prev.AndLen(cur) != prev.Len() {
			t.Fatalf("OR retrieval shrank when adding %q", k)
		}
		prev = cur
	}
}

// interleaveFixture builds an index plus an intentionally wrong initial
// clustering over two clean senses.
func interleaveFixture(t *testing.T) (*index.Index, search.Query, *cluster.Clustering, []document.DocID) {
	t.Helper()
	corpus := document.NewCorpus()
	texts := []string{
		"apple fruit orchard juice", "apple fruit pie orchard",
		"apple fruit tree harvest", "apple fruit cider press",
		"apple iphone store mac", "apple mac laptop store",
		"apple software mac xcode store", "apple iphone launch store",
	}
	var ids []document.DocID
	for _, txt := range texts {
		ids = append(ids, corpus.AddText("", txt))
	}
	idx := index.Build(corpus, analysis.Simple())
	// Wrong split: one fruit doc stranded in the tech cluster. The ids
	// ascend, so Assign's positions are the universe's dense IDs.
	bad := &cluster.Clustering{
		Clusters: [][]document.DocID{
			{ids[0], ids[1], ids[2]},
			{ids[3], ids[4], ids[5], ids[6], ids[7]},
		},
		Assign: []int{0, 0, 0, 1, 1, 1, 1, 1},
	}
	return idx, search.NewQuery("apple"), bad, ids
}

// interleaveUniverse resolves the fixture's universe snapshot, unweighted.
func interleaveUniverse(idx *index.Index, q search.Query, ids []document.DocID) *Universe {
	return NewUniverse(idx, q, ids, nil, DefaultPoolOptions())
}

func TestInterleaveImprovesBadClustering(t *testing.T) {
	idx, q, bad, ids := interleaveFixture(t)
	u := interleaveUniverse(idx, q, ids)
	baseline := Solve(&ISKR{}, u.Problems(bad.Sets()))
	it := &Interleave{}
	res, err := it.Run(context.Background(), u, bad)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Score < baseline.Score {
		t.Errorf("interleaving worsened the score: %v -> %v",
			baseline.Score, res.Result.Score)
	}
	if res.Rounds < 1 {
		t.Error("no rounds recorded")
	}
	// The stranded fruit doc should end up with its peers, giving a
	// perfect split and score 1.
	if res.Result.Score < 0.99 {
		t.Errorf("interleaved score = %v, want ~1 on separable senses", res.Result.Score)
	}
}

func TestInterleaveClustersPartitionUniverse(t *testing.T) {
	idx, q, bad, ids := interleaveFixture(t)
	res, err := (&Interleave{MaxRounds: 3}).Run(context.Background(),
		interleaveUniverse(idx, q, ids), bad)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != len(res.Result.Expansions) {
		t.Fatalf("%d clusters for %d expansions", len(res.Clusters), len(res.Result.Expansions))
	}
	seen := docSet{}
	for _, s := range res.Clusters {
		for _, id := range s {
			if seen.Contains(id) {
				t.Fatalf("doc %d in two clusters", id)
			}
			seen.Add(id)
		}
	}
	if seen.Len() != len(ids) {
		t.Errorf("clusters cover %d of %d docs", seen.Len(), len(ids))
	}
}

// cancellingExpander cancels its context on the first Expand and counts
// every call.
type cancellingExpander struct {
	cancel context.CancelFunc
	calls  atomic.Int32
}

func (c *cancellingExpander) Name() string { return "cancelling" }

func (c *cancellingExpander) Expand(p *Problem) Expanded {
	c.calls.Add(1)
	c.cancel()
	return (&ISKR{}).Expand(p)
}

func TestInterleaveHonoursContext(t *testing.T) {
	idx, q, bad, ids := interleaveFixture(t)
	u := interleaveUniverse(idx, q, ids)

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	ex := &cancellingExpander{cancel: cancel}
	res, err := (&Interleave{Expander: ex, MaxRounds: 5}).Run(dead, u, bad)
	if err != context.Canceled || res != nil {
		t.Fatalf("pre-cancelled Run = (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if n := ex.calls.Load(); n != 0 {
		t.Errorf("pre-cancelled Run solved %d clusters, want 0", n)
	}

	// Cancelled mid-round: the first solve cancels, so the round never
	// finishes and no second round starts.
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	ex = &cancellingExpander{cancel: cancel}
	res, err = (&Interleave{Expander: ex, MaxRounds: 5}).Run(live, u, bad)
	if err != context.Canceled || res != nil {
		t.Fatalf("Run cancelled mid-round = (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if n, k := int(ex.calls.Load()), bad.K(); n > k {
		t.Errorf("cancelled Run solved %d clusters, more than one round of %d", n, k)
	}
}
