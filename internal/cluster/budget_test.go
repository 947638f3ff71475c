package cluster

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// tierOptions are the degradation ladder's (quality, budget, abandon)
// combinations as the serving layer applies them: T0/T1 are the plain
// quality modes, T2 is serving with restart budget 1 + aggressive
// abandonment, T3's fallback reuses T2's clustering knobs with K=1.
func tierOptions(base Options) map[string]Options {
	t1 := base
	t1.Quality = QualityServing
	t2 := t1
	t2.RestartBudget = 1
	t2.AggressiveAbandon = true
	return map[string]Options{"T0": base, "T1": t1, "T2": t2}
}

// TestTierBitIdentityPerBudgetPair pins the ladder's determinism contract:
// for a fixed (quality, restart budget, abandon) triple the clustering is a
// pure function of the seed — repeated runs are bit-identical (distortion
// compared via Float64bits), exactly as exact/serving are pinned today.
func TestTierBitIdentityPerBudgetPair(t *testing.T) {
	idx, ids, _ := twoTopicIndex(t, 20)
	base := Options{K: 3, Seed: 11, PlusPlus: true, Restarts: 5}
	for tier, opts := range tierOptions(base) {
		first := kmeans(idx, ids, opts)
		for run := 0; run < 3; run++ {
			again := kmeans(idx, ids, opts)
			if math.Float64bits(again.Distortion) != math.Float64bits(first.Distortion) {
				t.Errorf("%s run %d: distortion %x, want %x", tier, run,
					math.Float64bits(again.Distortion), math.Float64bits(first.Distortion))
			}
			if fmt.Sprint(again.Clusters) != fmt.Sprint(first.Clusters) {
				t.Errorf("%s run %d: clusters diverge between identical runs", tier, run)
			}
			if again.Restarts != first.Restarts || again.TotalIterations != first.TotalIterations {
				t.Errorf("%s run %d: bookkeeping diverges (%d/%d vs %d/%d)", tier, run,
					again.Restarts, again.TotalIterations, first.Restarts, first.TotalIterations)
			}
		}
	}
}

// TestRestartBudgetCapsAfterQuality: the budget applies on top of the
// quality mode's own cap and can only lower the count.
func TestRestartBudgetCapsAfterQuality(t *testing.T) {
	idx, ids, _ := twoTopicIndex(t, 12)
	cases := []struct {
		quality Quality
		budget  int
		want    int
	}{
		{QualityExact, 0, 5},   // no budget: all requested restarts
		{QualityExact, 2, 2},   // budget caps exact mode too
		{QualityServing, 0, 2}, // serving cap alone
		{QualityServing, 1, 1}, // budget under the serving cap
		{QualityServing, 9, 2}, // budget can never raise the count
	}
	for _, tc := range cases {
		cl := kmeans(idx, ids, Options{
			K: 2, Seed: 5, PlusPlus: true, Restarts: 5,
			Quality: tc.quality, RestartBudget: tc.budget,
		})
		if cl.Restarts != tc.want {
			t.Errorf("quality=%v budget=%d: restarts %d, want %d",
				tc.quality, tc.budget, cl.Restarts, tc.want)
		}
	}
}

// TestBudgetOneMatchesSingleRestart: a restart budget of 1 is exactly a
// Restarts: 1 run — same derived seed, same clustering, bit for bit.
func TestBudgetOneMatchesSingleRestart(t *testing.T) {
	idx, ids, _ := twoTopicIndex(t, 15)
	base := Options{K: 3, Seed: 42, PlusPlus: true, Quality: QualityServing}
	budgeted := base
	budgeted.Restarts = 5
	budgeted.RestartBudget = 1
	budgeted.AggressiveAbandon = true // moot with one restart, set anyway (T2)
	single := base
	single.Restarts = 1
	a, b := kmeans(idx, ids, budgeted), kmeans(idx, ids, single)
	if math.Float64bits(a.Distortion) != math.Float64bits(b.Distortion) {
		t.Errorf("distortion %v vs %v", a.Distortion, b.Distortion)
	}
	if fmt.Sprint(a.Clusters) != fmt.Sprint(b.Clusters) {
		t.Error("budget-1 clustering differs from a single-restart run")
	}
}

// TestAggressiveAbandonIsDeterministic: the tightened threshold may abandon
// more restarts but must do so identically on every run, and must change
// nothing in exact mode (abandonment is off there).
func TestAggressiveAbandonIsDeterministic(t *testing.T) {
	idx, ids, _ := twoTopicIndex(t, 25)
	opts := Options{
		K: 4, Seed: 3, PlusPlus: true, Restarts: 5,
		Quality: QualityServing, AggressiveAbandon: true,
	}
	first := kmeans(idx, ids, opts)
	for run := 0; run < 3; run++ {
		again := kmeans(idx, ids, opts)
		if again.AbandonedRestarts != first.AbandonedRestarts ||
			fmt.Sprint(again.Clusters) != fmt.Sprint(first.Clusters) {
			t.Fatalf("run %d: aggressive abandonment nondeterministic", run)
		}
	}
	exact := Options{K: 4, Seed: 3, PlusPlus: true, Restarts: 5, AggressiveAbandon: true}
	plain := exact
	plain.AggressiveAbandon = false
	a, b := kmeans(idx, ids, exact), kmeans(idx, ids, plain)
	if math.Float64bits(a.Distortion) != math.Float64bits(b.Distortion) {
		t.Error("AggressiveAbandon changed a QualityExact run")
	}
}

// TestContextCancellationStopsDrive: a cancelled context stops the lockstep
// driver at a round boundary — the run ends early instead of converging —
// while an attached-but-live context changes nothing.
func TestContextCancellationStopsDrive(t *testing.T) {
	idx, ids, _ := twoTopicIndex(t, 30)
	base := Options{K: 3, Seed: 7, PlusPlus: true, Restarts: 4}

	full := kmeans(idx, ids, base)
	if full.TotalIterations == 0 {
		t.Fatal("full run did no iterations")
	}

	live := base
	live.Ctx = context.Background()
	withCtx := kmeans(idx, ids, live)
	if math.Float64bits(withCtx.Distortion) != math.Float64bits(full.Distortion) ||
		withCtx.TotalIterations != full.TotalIterations {
		t.Error("a live context changed the clustering")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first round
	dead := base
	dead.Ctx = ctx
	stopped := kmeans(idx, ids, dead)
	if stopped.TotalIterations != 0 {
		t.Errorf("cancelled drive ran %d iterations, want 0", stopped.TotalIterations)
	}
}
