package experiment

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// tierRow is one effort tier's k-means run over one Table 1 universe at
// K=3, with the engine's base options (k-means++, 5 restarts, the study
// seed): the winner's distortion bits, a fingerprint of its clusters (in
// cluster order) and the driver's bookkeeping.
type tierRow struct {
	query, tier                string
	distortion, clusters       uint64
	restarts, iters, abandoned int
}

// table1TierGolden pins T0 (exact), T1 (serving) and T2 (minimal) on every
// Table 1 universe, where TestTierGolden covers only synthetic two-topic
// corpora. A row that changes means the tier's arithmetic, restart count or
// abandonment changed; the failure message prints the replacement row.
var table1TierGolden = []tierRow{
	{"shopping/QS1", "T0", 0x400866490cf21935, 0xd3c207bf295580f, 5, 13, 0},
	{"shopping/QS1", "T1", 0x400866490cf21935, 0xd3c207bf295580f, 2, 4, 1},
	{"shopping/QS1", "T2", 0x400866490cf21935, 0xd3c207bf295580f, 1, 2, 0},
	{"shopping/QS2", "T0", 0x400aa5a4c1fa7a65, 0x70dece9549ef168d, 5, 11, 0},
	{"shopping/QS2", "T1", 0x400aa5a4c1fa7a65, 0x70dece9549ef168d, 2, 4, 0},
	{"shopping/QS2", "T2", 0x400aa5a4c1fa7a65, 0x70dece9549ef168d, 1, 2, 0},
	{"shopping/QS3", "T0", 0x3ff03a1b72601ed2, 0xbf6ec3821e21bbf, 5, 10, 0},
	{"shopping/QS3", "T1", 0x3ff043d61fdc19d8, 0x5c593f873162f763, 2, 4, 0},
	{"shopping/QS3", "T2", 0x3ff105ce54672c97, 0xdb09d314d8d8c0ef, 1, 2, 0},
	{"shopping/QS4", "T0", 0x3ff8c85d4c1bb892, 0x5ade447efe7b2911, 5, 10, 0},
	{"shopping/QS4", "T1", 0x3ff8c85d4c1bb892, 0x5ade447efe7b2911, 2, 4, 0},
	{"shopping/QS4", "T2", 0x3ff8f9d84cda6d08, 0x7935492c288d9c5b, 1, 2, 0},
	{"shopping/QS5", "T0", 0x3fdee00bf9af51ca, 0x1a2ca52563e7d2ff, 5, 10, 0},
	{"shopping/QS5", "T1", 0x3fe02016dfad2cd1, 0x8ad5b98ecc8d041d, 2, 4, 0},
	{"shopping/QS5", "T2", 0x3fe0cdca26b16a13, 0xf39a7a016884033f, 1, 2, 0},
	{"shopping/QS6", "T0", 0x400281697fbed168, 0x5af14659f48103c4, 5, 11, 0},
	{"shopping/QS6", "T1", 0x400281697fbed168, 0x5af14659f48103c4, 2, 4, 1},
	{"shopping/QS6", "T2", 0x400281697fbed168, 0x5af14659f48103c4, 1, 2, 0},
	{"shopping/QS7", "T0", 0x401d96f2a870a447, 0x6083a87673e581ff, 5, 18, 0},
	{"shopping/QS7", "T1", 0x401d96f2a870a447, 0x6083a87673e581ff, 2, 6, 0},
	{"shopping/QS7", "T2", 0x40204ac6facee0a2, 0x1fb3b60f7c76600f, 1, 3, 0},
	{"shopping/QS8", "T0", 0x3fa9689a8c9f4480, 0xf5febb2cd3f107ed, 5, 10, 0},
	{"shopping/QS8", "T1", 0x3faaf3bcacc4c480, 0xdad9f578941b4101, 2, 4, 0},
	{"shopping/QS8", "T2", 0x3faaf3bcacc4c480, 0xdad9f578941b4101, 1, 2, 0},
	{"shopping/QS9", "T0", 0x400840994dce8e57, 0xe28ddb866674fd3c, 5, 12, 0},
	{"shopping/QS9", "T1", 0x400840994dce8e57, 0xe28ddb866674fd3c, 2, 4, 1},
	{"shopping/QS9", "T2", 0x400840994dce8e57, 0xe28ddb866674fd3c, 1, 2, 0},
	{"shopping/QS10", "T0", 0x3ff80df51358a9bc, 0x78bce97b2d6be987, 5, 11, 0},
	{"shopping/QS10", "T1", 0x3ff9b952ecf41486, 0x85b9d96ab71f67e3, 2, 4, 0},
	{"shopping/QS10", "T2", 0x3ff9b952ecf41486, 0x85b9d96ab71f67e3, 1, 2, 0},
	{"wikipedia/QW1", "T0", 0x40200026b039c2c9, 0xb80816da0b070580, 5, 16, 0},
	{"wikipedia/QW1", "T1", 0x40205209119447f5, 0x2018f26a52654dfe, 2, 6, 0},
	{"wikipedia/QW1", "T2", 0x40205209119447f5, 0x2018f26a52654dfe, 1, 3, 0},
	{"wikipedia/QW2", "T0", 0x4020a02037b8b396, 0xb8703d91d6272a7f, 5, 17, 0},
	{"wikipedia/QW2", "T1", 0x4020a02037b8b396, 0xb8703d91d6272a7f, 2, 6, 1},
	{"wikipedia/QW2", "T2", 0x4020a02037b8b396, 0xb8703d91d6272a7f, 1, 3, 0},
	{"wikipedia/QW3", "T0", 0x401dc35e8e4ef4ee, 0xd5fc2c095798df70, 5, 14, 0},
	{"wikipedia/QW3", "T1", 0x401dc35e8e4ef4ee, 0xd5fc2c095798df70, 2, 4, 1},
	{"wikipedia/QW3", "T2", 0x401dc35e8e4ef4ee, 0xd5fc2c095798df70, 1, 2, 0},
	{"wikipedia/QW4", "T0", 0x401e34335e0fcc05, 0xba2bf8846e21fd29, 5, 13, 0},
	{"wikipedia/QW4", "T1", 0x401e34335e0fcc05, 0xba2bf8846e21fd29, 2, 4, 1},
	{"wikipedia/QW4", "T2", 0x401e34335e0fcc05, 0xba2bf8846e21fd29, 1, 2, 0},
	{"wikipedia/QW5", "T0", 0x401fc60e9804b96e, 0xf0a7353b4a44d8c7, 5, 15, 0},
	{"wikipedia/QW5", "T1", 0x401fc60e9804b96e, 0xf0a7353b4a44d8c7, 2, 4, 1},
	{"wikipedia/QW5", "T2", 0x401fc60e9804b96e, 0xf0a7353b4a44d8c7, 1, 2, 0},
	{"wikipedia/QW6", "T0", 0x40220620ae7fec65, 0x903dbe57e8cc8d20, 5, 17, 0},
	{"wikipedia/QW6", "T1", 0x40220620ae7fec65, 0x903dbe57e8cc8d20, 2, 6, 1},
	{"wikipedia/QW6", "T2", 0x40220620ae7fec65, 0x903dbe57e8cc8d20, 1, 3, 0},
	{"wikipedia/QW7", "T0", 0x401f9aaad30e5097, 0x6ac36cb5b5a526ca, 5, 14, 0},
	{"wikipedia/QW7", "T1", 0x401f9aaad30e5097, 0x6ac36cb5b5a526ca, 2, 4, 1},
	{"wikipedia/QW7", "T2", 0x401f9aaad30e5097, 0x6ac36cb5b5a526ca, 1, 2, 0},
	{"wikipedia/QW8", "T0", 0x401fdaaef71417b5, 0x26f87d30b16862ad, 5, 17, 0},
	{"wikipedia/QW8", "T1", 0x401fdaaef71417b5, 0x26f87d30b16862ad, 2, 6, 1},
	{"wikipedia/QW8", "T2", 0x401fdaaef71417b5, 0x26f87d30b16862ad, 1, 3, 0},
	{"wikipedia/QW9", "T0", 0x401f4950b4a43806, 0x141822aef45682d9, 5, 15, 0},
	{"wikipedia/QW9", "T1", 0x401f4950b4a43806, 0x141822aef45682d9, 2, 4, 1},
	{"wikipedia/QW9", "T2", 0x401f4950b4a43806, 0x141822aef45682d9, 1, 2, 0},
	{"wikipedia/QW10", "T0", 0x40203c70f3caced9, 0x76da6a5e8308cf04, 5, 12, 0},
	{"wikipedia/QW10", "T1", 0x40203c70f3caced9, 0x76da6a5e8308cf04, 2, 4, 1},
	{"wikipedia/QW10", "T2", 0x40203c70f3caced9, 0x76da6a5e8308cf04, 1, 2, 0},
}

func TestTierGoldenTable1(t *testing.T) {
	r, s := sharedStudy(t)
	tiers := []struct {
		name string
		q    cluster.Quality
	}{{"T0", cluster.QualityExact}, {"T1", cluster.QualityServing}, {"T2", cluster.QualityMinimal}}
	var got []tierRow
	for _, qr := range s.Runs {
		vecs, docs := qr.Universe.Vectors(), qr.Universe.Docs()
		for _, tier := range tiers {
			cl := cluster.KMeansVecs(qr.Dataset.Index.NumTerms(), vecs, docs, cluster.Options{
				K: 3, Seed: r.Config.Seed, PlusPlus: true, Restarts: 5, Quality: tier.q,
			})
			h := fnv.New64a()
			fmt.Fprint(h, cl.Clusters)
			got = append(got, tierRow{
				query: qr.Dataset.Name + "/" + qr.TQ.ID, tier: tier.name,
				distortion: math.Float64bits(cl.Distortion), clusters: h.Sum64(),
				restarts: cl.Restarts, iters: cl.TotalIterations, abandoned: cl.AbandonedRestarts,
			})
		}
	}
	if len(got) != len(table1TierGolden) {
		t.Errorf("%d rows, golden has %d; rows now:\n%s", len(got), len(table1TierGolden), rowLiterals(got))
		return
	}
	for i, g := range got {
		if g != table1TierGolden[i] {
			t.Errorf("row %d changed:\n got  %s\n want %s", i, rowLiteral(g), rowLiteral(table1TierGolden[i]))
		}
	}
}

func rowLiteral(r tierRow) string {
	return fmt.Sprintf("{%q, %q, %#x, %#x, %d, %d, %d},", r.query, r.tier,
		r.distortion, r.clusters, r.restarts, r.iters, r.abandoned)
}

func rowLiterals(rows []tierRow) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString("\t" + rowLiteral(r) + "\n")
	}
	return b.String()
}
