package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/document"
)

// The golden file pins clustering outputs of the pre-interning, map-backed
// implementation. The interned-vector rewrite must reproduce every case
// bit-for-bit (distortion is compared via Float64bits): the dictionary
// assigns term IDs in lexicographic order, so merge-join accumulation visits
// terms in exactly the order the old sorted-map accumulation did.
//
// Regenerate with QEC_UPDATE_GOLDEN=1 go test ./internal/cluster -run Golden
// (only legitimate when the clustering semantics intentionally change).

const goldenPath = "testdata/kmeans_golden.json"

type goldenCase struct {
	Name     string `json:"name"`
	PerTopic int    `json:"per_topic"`
	K        int    `json:"k"`
	Seed     int64  `json:"seed"`
	PlusPlus bool   `json:"plus_plus"`
	Restarts int    `json:"restarts"`
	// Linkage is -1 on every k-means row. The file's three rows with
	// 0–2 belong to the deleted agglomerative method; kmeansGolden skips
	// them, so the k-means rows stay byte-identical to their capture.
	Linkage    int `json:"linkage"`
	Clusters   [][]document.DocID
	Distortion uint64 `json:"distortion_bits"`
	Iterations int    `json:"iterations"`
}

func goldenCases() []goldenCase {
	cases := []goldenCase{
		{Name: "small-uniform", PerTopic: 6, K: 2, Seed: 1, Linkage: -1},
		{Name: "small-plusplus", PerTopic: 6, K: 3, Seed: 7, PlusPlus: true, Linkage: -1},
		{Name: "mid-plusplus", PerTopic: 15, K: 3, Seed: 42, PlusPlus: true, Linkage: -1},
		{Name: "mid-restarts", PerTopic: 15, K: 4, Seed: 5, PlusPlus: true, Restarts: 6, Linkage: -1},
		{Name: "large-restarts", PerTopic: 40, K: 5, Seed: 11, PlusPlus: true, Restarts: 4, Linkage: -1},
		{Name: "k-exceeds-n", PerTopic: 2, K: 9, Seed: 3, Linkage: -1},
	}
	return cases
}

func (g *goldenCase) run(t *testing.T) *Clustering {
	t.Helper()
	idx, ids, _ := twoTopicIndex(t, g.PerTopic)
	return kmeans(idx, ids, Options{
		K: g.K, Seed: g.Seed, PlusPlus: g.PlusPlus, Restarts: g.Restarts,
	})
}

// TestQualityExactStillMatchesGolden is the quality-knob regression pin: an
// explicit Quality: QualityExact must reproduce the golden file bit for bit
// (the zero value already is exact; this guards the knob's default and the
// dense-centroid path against drift).
func TestQualityExactStillMatchesGolden(t *testing.T) {
	for _, w := range kmeansGolden(t) {
		idx, ids, _ := twoTopicIndex(t, w.PerTopic)
		cl := kmeans(idx, ids, Options{
			K: w.K, Seed: w.Seed, PlusPlus: w.PlusPlus, Restarts: w.Restarts,
			Quality: QualityExact,
		})
		if math.Float64bits(cl.Distortion) != w.Distortion {
			t.Errorf("%s: distortion bits %x, golden %x", w.Name,
				math.Float64bits(cl.Distortion), w.Distortion)
		}
		if cl.Iterations != w.Iterations {
			t.Errorf("%s: iterations %d, golden %d", w.Name, cl.Iterations, w.Iterations)
		}
		if fmt.Sprint(cl.Clusters) != fmt.Sprint(w.Clusters) {
			t.Errorf("%s: clusters diverge from golden", w.Name)
		}
	}
}

func TestClusteringMatchesPrePRGolden(t *testing.T) {
	cases := goldenCases()
	for i := range cases {
		g := &cases[i]
		cl := g.run(t)
		g.Clusters = cl.Clusters
		g.Distortion = math.Float64bits(cl.Distortion)
		g.Iterations = cl.Iterations
	}
	if os.Getenv("QEC_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(cases, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", goldenPath, len(cases))
		return
	}
	want := kmeansGolden(t)
	if len(want) != len(cases) {
		t.Fatalf("golden has %d cases, code has %d", len(want), len(cases))
	}
	for i, g := range cases {
		w := want[i]
		if g.Name != w.Name {
			t.Fatalf("case %d: name %q vs golden %q", i, g.Name, w.Name)
		}
		if g.Iterations != w.Iterations {
			t.Errorf("%s: iterations = %d, golden %d", g.Name, g.Iterations, w.Iterations)
		}
		if g.Distortion != w.Distortion {
			t.Errorf("%s: distortion bits = %x (%v), golden %x (%v)", g.Name,
				g.Distortion, math.Float64frombits(g.Distortion),
				w.Distortion, math.Float64frombits(w.Distortion))
		}
		if fmt.Sprint(g.Clusters) != fmt.Sprint(w.Clusters) {
			t.Errorf("%s: clusters = %v, golden %v", g.Name, g.Clusters, w.Clusters)
		}
	}
}

// kmeansGolden reads the golden file's k-means rows, in file order.
func kmeansGolden(t *testing.T) []goldenCase {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with QEC_UPDATE_GOLDEN=1 to create): %v", err)
	}
	var rows []goldenCase
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	out := rows[:0]
	for _, r := range rows {
		if r.Linkage < 0 {
			out = append(out, r)
		}
	}
	return out
}
