package qec

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/document"
	"repro/internal/experiment"
)

// TestEngineMatchesExperimentRunner is the differential test behind the
// claim that the Table 1 numbers come from the code the server runs: for
// every Table 1 query of both datasets, the served engine — built from the
// dataset corpus with the experiment seed, asked for the runner's k and
// top-K — returns exactly what the runner's solve over its prepared problems
// returns: the same expanded queries and a bit-identical Eq. 1 score, for
// ISKR and for PEBC.
func TestEngineMatchesExperimentRunner(t *testing.T) {
	cfg := experiment.DefaultConfig()
	r := experiment.NewRunner(cfg)
	engines := map[*dataset.Dataset]*Engine{}
	for _, d := range []*dataset.Dataset{r.Shopping, r.Wiki} {
		e := NewEngine(WithSeed(cfg.Seed))
		for _, doc := range d.Corpus.Docs() {
			if doc.Kind == document.Structured {
				e.AddProduct(doc.Title, doc.Triplets)
			} else {
				e.AddText(doc.Title, doc.Body)
			}
		}
		engines[d] = e
	}

	for _, qr := range r.AllQueryRuns() {
		topK := 0
		if qr.Dataset.Name == "wikipedia" {
			topK = cfg.TopK
		}
		for _, arm := range []struct {
			method Method
			solver core.Expander
		}{
			{ISKR, &core.ISKR{}},
			{PEBC, &core.PEBC{Segments: cfg.PEBCSegments, Iterations: cfg.PEBCIterations, Seed: cfg.Seed}},
		} {
			want := core.Solve(arm.solver, qr.Problems)
			got, err := engines[qr.Dataset].Expand(qr.TQ.Raw, ExpandOptions{
				K: qr.Clustering.K(), TopK: topK, Method: arm.method,
			})
			if err != nil {
				t.Fatalf("%s %s: %v", qr.TQ.ID, arm.method, err)
			}
			if math.Float64bits(got.Score) != math.Float64bits(want.Score) {
				t.Errorf("%s %s: engine score %v, runner %v", qr.TQ.ID, arm.method, got.Score, want.Score)
			}
			if len(got.Queries) != len(want.Expansions) {
				t.Fatalf("%s %s: engine returned %d queries, runner %d",
					qr.TQ.ID, arm.method, len(got.Queries), len(want.Expansions))
			}
			for i, ce := range want.Expansions {
				if !slices.Equal(got.Queries[i].Terms, ce.Expanded.Query.Terms) {
					t.Errorf("%s %s q%d: engine %v, runner %v", qr.TQ.ID, arm.method, i+1,
						got.Queries[i].Terms, ce.Expanded.Query.Terms)
				}
			}
		}
	}
}
