package cluster

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// tierOptions are the degradation ladder's clustering levels as the serving
// layer applies them: T0 is the request's exact default, T1 serving and T2
// minimal (T3's fallback reuses T2's level with K=1).
func tierOptions(base Options) map[string]Options {
	t1, t2 := base, base
	t1.Quality = QualityServing
	t2.Quality = QualityMinimal
	return map[string]Options{"T0": base, "T1": t1, "T2": t2}
}

// TestTierBitIdentityPerBudgetPair pins the ladder's determinism contract:
// at a fixed quality level the clustering is a pure function of the seed —
// repeated runs are bit-identical (distortion compared via Float64bits).
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

// tierGolden pins the ladder's clustering tiers by value on cases where T1
// and T2 disagree, so a change to either tier's arithmetic or restart count
// shows here even where the 8-document server ladder golden cannot see it.
// Base options are the engine's (k-means++, 5 restarts).
var tierGolden = []struct {
	per, k          int
	seed            int64
	tier            string
	distortion      uint64 // math.Float64bits
	restarts, iters int    // Restarts, TotalIterations
	clusters        string // fmt.Sprint(Clusters)
}{
	{15, 3, 11, "T0", 0x401712099cd84796, 5, 19, "[[0 1 2 3 4 5 6 7 8 9 10 11 12 13 14] [17 18 19 21 23 24 27] [15 16 20 22 25 26 28 29]]"},
	{15, 3, 11, "T1", 0x4017e3fa9dd84fac, 2, 6, "[[15 16 17 18 19 20 21 22 23 24 25 26 27 28 29] [0 1 2 3 5 6 8 9 11 12] [4 7 10 13 14]]"},
	{15, 3, 11, "T2", 0x401712099cd84796, 1, 7, "[[0 1 2 3 4 5 6 7 8 9 10 11 12 13 14] [17 18 19 21 23 24 27] [15 16 20 22 25 26 28 29]]"},
	{25, 4, 11, "T0", 0x402002c80b3d1730, 5, 19, "[[3 6 7 10 11 14 15 16 20 22] [25 26 27 28 29 30 31 32 33 34 35 36 38 39 40 41 42 43 44 46 47 48] [37 45 49] [0 1 2 4 5 8 9 12 13 17 18 19 21 23 24]]"},
	{25, 4, 11, "T1", 0x402032e22ac11ccd, 2, 6, "[[0 1 2 5 8 9 12 17 18 19 21 24] [25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49] [3 6 11 15 16 20 22] [4 7 10 13 14 23]]"},
	{25, 4, 11, "T2", 0x402002c80b3d1730, 1, 6, "[[3 6 7 10 11 14 15 16 20 22] [25 26 27 28 29 30 31 32 33 34 35 36 38 39 40 41 42 43 44 46 47 48] [37 45 49] [0 1 2 4 5 8 9 12 13 17 18 19 21 23 24]]"},
	{30, 4, 42, "T0", 0x4024ab82b2aaeee8, 5, 20, "[[3 6 7 10 11 14 15 16 20 22 25 26 28 29] [30 33 36 38 39 42 43 44 47 50 52 56] [31 32 34 35 37 40 41 45 46 48 49 51 53 54 55 57 58 59] [0 1 2 4 5 8 9 12 13 17 18 19 21 23 24 27]]"},
	{30, 4, 42, "T1", 0x4024ab82b2aaeee8, 2, 10, "[[3 6 7 10 11 14 15 16 20 22 25 26 28 29] [30 33 36 38 39 42 43 44 47 50 52 56] [31 32 34 35 37 40 41 45 46 48 49 51 53 54 55 57 58 59] [0 1 2 4 5 8 9 12 13 17 18 19 21 23 24 27]]"},
	{30, 4, 42, "T2", 0x402618b308e679ce, 1, 4, "[[1 4 5 8 10 12 13 18 19 23 24 27] [3 6 7 11 14 15 16 20 22 25 26 28 29] [30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59] [0 2 9 17 21]]"},
}

// TestTierGolden checks every tier of tierGolden by value.
func TestTierGolden(t *testing.T) {
	for _, g := range tierGolden {
		idx, ids, _ := twoTopicIndex(t, g.per)
		opts := tierOptions(Options{K: g.k, Seed: g.seed, PlusPlus: true, Restarts: 5})[g.tier]
		cl := kmeans(idx, ids, opts)
		name := fmt.Sprintf("per=%d k=%d seed=%d %s", g.per, g.k, g.seed, g.tier)
		if got := math.Float64bits(cl.Distortion); got != g.distortion {
			t.Errorf("%s: distortion %#x (%v), want %#x (%v)", name, got, cl.Distortion,
				g.distortion, math.Float64frombits(g.distortion))
		}
		if cl.Restarts != g.restarts || cl.TotalIterations != g.iters {
			t.Errorf("%s: restarts/iterations %d/%d, want %d/%d", name,
				cl.Restarts, cl.TotalIterations, g.restarts, g.iters)
		}
		if got := fmt.Sprint(cl.Clusters); got != g.clusters {
			t.Errorf("%s: clusters %s, want %s", name, got, g.clusters)
		}
	}
}

// TestQualityCapsRestarts: each level caps the requested restarts (exact
// none, serving two, minimal one) and never raises the count.
func TestQualityCapsRestarts(t *testing.T) {
	idx, ids, _ := twoTopicIndex(t, 12)
	cases := []struct {
		quality         Quality
		requested, want int
	}{
		{QualityExact, 5, 5},
		{QualityServing, 5, 2},
		{QualityServing, 1, 1},
		{QualityMinimal, 5, 1},
		{QualityMinimal, 0, 1},
	}
	for _, tc := range cases {
		cl := kmeans(idx, ids, Options{
			K: 2, Seed: 5, PlusPlus: true, Restarts: tc.requested, Quality: tc.quality,
		})
		if cl.Restarts != tc.want {
			t.Errorf("quality=%v restarts=%d: ran %d, want %d",
				tc.quality, tc.requested, cl.Restarts, tc.want)
		}
	}
}

// TestBudgetOneMatchesSingleRestart: QualityMinimal is exactly a serving run
// with Restarts: 1 — same derived seed, same clustering, bit for bit.
func TestBudgetOneMatchesSingleRestart(t *testing.T) {
	idx, ids, _ := twoTopicIndex(t, 15)
	minimal := Options{K: 3, Seed: 42, PlusPlus: true, Restarts: 5, Quality: QualityMinimal}
	single := minimal
	single.Quality, single.Restarts = QualityServing, 1
	a, b := kmeans(idx, ids, minimal), kmeans(idx, ids, single)
	if math.Float64bits(a.Distortion) != math.Float64bits(b.Distortion) {
		t.Errorf("distortion %v vs %v", a.Distortion, b.Distortion)
	}
	if fmt.Sprint(a.Clusters) != fmt.Sprint(b.Clusters) || a.TotalIterations != b.TotalIterations {
		t.Error("minimal clustering differs from a single-restart serving run")
	}
}

// TestContextCancellationStopsDrive: a cancelled context stops the driver
// before its next iteration — the run ends early instead of converging —
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
