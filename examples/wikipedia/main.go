// Wikipedia: the paper's QW6 scenario ("java") on the synthetic
// ambiguous-sense prose corpus — programming language, Indonesian island and
// coffee — comparing ISKR, PEBC and the delta-F variant on the same
// clustering.
package main

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/search"
)

func main() {
	d := dataset.Wikipedia(2012, 1)
	eng := search.NewEngine(d.Index)
	q := search.ParseQuery(d.Index, "java")

	// Paper setup: only the top 30 results are considered.
	results := eng.Search(q, search.And, 30)
	fmt.Printf("QW6 'java': top %d of %d docs\n", len(results), d.Corpus.Len())

	// The paper's pipeline without a solver clusters the results; one
	// problem per cluster is then solved three ways.
	run, err := core.ClusterExpand(context.Background(), core.ClusterInput{
		Index: d.Index, Query: q, Results: results,
		Cluster: cluster.Options{K: 3, Seed: 7, PlusPlus: true, Restarts: 5},
	})
	if err != nil {
		panic(err)
	}
	for i, ids := range run.Clustering.Clusters {
		senses := map[string]int{}
		for _, id := range ids {
			senses[d.Labels[id]]++
		}
		fmt.Printf("  cluster %d (%d docs): %v\n", i, len(ids), senses)
	}

	problems := run.Universe.Problems(run.Clustering.Sets())
	for _, ex := range []core.Expander{
		&core.ISKR{},
		&core.PEBC{Seed: 7},
		&core.FMeasureVariant{},
	} {
		res := core.Solve(ex, problems)
		fmt.Printf("\n%s (Eq.1 score %.2f):\n", ex.Name(), res.Score)
		for i, ce := range res.Expansions {
			fmt.Printf("  q%d: %-32q F=%.2f\n", i+1,
				strings.Join(ce.Expanded.Query.Terms, ", "), ce.Expanded.PRF.F)
		}
	}
}
