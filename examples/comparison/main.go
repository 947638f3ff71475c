// Comparison: all six approaches of the paper's evaluation side by side on
// one query — the two proposed algorithms (ISKR, PEBC), the greedy delta-F
// walk, and the three baselines (CS cluster summarization, Data Clouds,
// and the query-log "Google" suggester).
package main

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/search"
)

func main() {
	d := dataset.Wikipedia(2012, 1)
	eng := search.NewEngine(d.Index)
	raw := "eclipse"
	q := search.ParseQuery(d.Index, raw)
	results := eng.Search(q, search.And, 30)
	// The paper's pipeline without a solver clusters the results; one
	// problem per cluster is then solved below by each cluster-based method.
	run, err := core.ClusterExpand(context.Background(), core.ClusterInput{
		Index: d.Index, Query: q, Results: results,
		Cluster: cluster.Options{K: 3, Seed: 5, PlusPlus: true, Restarts: 5},
	})
	if err != nil {
		panic(err)
	}
	cl, universe := run.Clustering, run.Universe
	sets := cl.Sets()
	problems := universe.Problems(sets)

	show := func(name string, queries []search.Query, scored bool) {
		fmt.Printf("%-12s", name)
		if scored {
			var fs []float64
			for i, eq := range queries {
				if i >= len(sets) {
					break
				}
				retrieved := baseline.RetrieveWithin(d.Index, eq, universe.Docs())
				fs = append(fs, universe.Measure(retrieved, sets[i]).F)
			}
			fmt.Printf(" (Eq.1 %.2f)", eval.Score(fs))
		}
		fmt.Println()
		for i, eq := range queries {
			fmt.Printf("  q%d: %q\n", i+1, strings.Join(eq.Terms, ", "))
		}
	}

	// Cluster-based approaches.
	for _, ex := range []core.Expander{&core.ISKR{}, &core.PEBC{Seed: 5}, &core.FMeasureVariant{}} {
		res := core.Solve(ex, problems)
		fmt.Printf("%-12s (Eq.1 %.2f)\n", ex.Name(), res.Score)
		for i, ce := range res.Expansions {
			fmt.Printf("  q%d: %q  F=%.2f\n", i+1,
				strings.Join(ce.Expanded.Query.Terms, ", "), ce.Expanded.PRF.F)
		}
	}

	// CS: TFICF cluster labels.
	cs := &baseline.CS{LabelSize: 3}
	show("CS", cs.Suggest(d.Index, cl, q), true)

	// Data Clouds: popular words, no clusters.
	dc := &baseline.DataClouds{TopK: 3}
	show("DataClouds", dc.Suggest(d.Index, results, q), false)

	// Google: query-log suggestions, no corpus access at all.
	log := baseline.NewQueryLog(d.Log)
	show("Google", log.Suggest(raw, 3), false)
}
