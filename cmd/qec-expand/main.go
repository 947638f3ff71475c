// Command qec-expand runs one expansion method on one query: search, then
// the selected backend (clustered paper pipeline, vector-neighborhood,
// lexical-synonym, or orthogonal coverage), printing each expanded query
// with its precision/recall/F against its neighborhood and the Eq. 1 score
// of the whole set.
//
// Usage:
//
//	qec-expand -dataset wikipedia -query "java" -method iskr
//	qec-expand -dataset shopping -query "canon products" -method pebc -k 3
//	qec-expand -dataset wikipedia -query "java" -method lexical -synonyms thesaurus.txt
//	qec-expand -method help
//
// -method help prints the capability matrix of every built-in method.
// -trace prints a per-stage timing table (parse, search, problem, cluster,
// solve) to stderr after the run, reusing the serving layer's obs.Trace. The
// clustered methods and the cs baseline run core.ClusterExpand, the pipeline
// the server runs, so the table has the server's stages.
// -explain prints the decision trail: top-K pruning counters, each k-means
// restart's fate, the candidate pool each cluster's solver saw (benefit,
// cost, value), the moves/samples it applied, and what every rejected
// alternative scored — the CLI face of the server's "explain": true.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	qec "repro"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	expander "repro/internal/expander"
	"repro/internal/obs"
	"repro/internal/search"
)

func main() {
	var (
		ds       = flag.String("dataset", "wikipedia", "corpus: shopping or wikipedia")
		query    = flag.String("query", "", "keyword query (required)")
		method   = flag.String("method", "iskr", `expansion method ("help" prints the matrix); baselines: cs, dataclouds, google`)
		k        = flag.Int("k", 3, "maximum number of clusters / expanded queries")
		topK     = flag.Int("top", 30, "consider only the top-K results (0 = all)")
		seed     = flag.Int64("seed", 2011, "dataset / clustering / PEBC seed")
		scale    = flag.Int("scale", 1, "corpus scale multiplier")
		synFile  = flag.String("synonyms", "", "thesaurus file for -method lexical (head: syn1, syn2 | a, b, c)")
		traceOpt = flag.Bool("trace", false, "print a per-stage timing table to stderr")
		explain  = flag.Bool("explain", false, "print the decision trail: pruning counters, k-means restart fates, candidate pools, picked keywords and rejected-alternative scores")
	)
	flag.Parse()

	if *method == "help" {
		printMethodHelp(os.Stdout)
		return
	}
	if *query == "" {
		flag.Usage()
		os.Exit(2)
	}

	// Baselines are CLI-only comparison points, outside the method registry.
	baselineMethod := *method == "cs" || *method == "dataclouds" || *method == "google"
	var m qec.Method
	if !baselineMethod {
		var err error
		if m, err = qec.ParseMethod(*method); err != nil {
			fmt.Fprintf(os.Stderr, "%v\nbaselines: cs, dataclouds, google; -method help prints the matrix\n", err)
			os.Exit(2)
		}
	}

	var synonyms expander.SynonymSource
	if *synFile != "" {
		f, err := os.Open(*synFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		synonyms, err = expander.LoadTable(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	// The trace always records — the stage durations are the times printed
	// below — and -trace also prints its table.
	tr := obs.GetTrace()
	if *traceOpt {
		tr.ID = obs.NextTraceID()
		defer func() {
			fmt.Fprintf(os.Stderr, "\ntrace %s\n", obs.IDString(tr.ID))
			tr.WriteTable(os.Stderr)
		}()
	}

	var d *dataset.Dataset
	switch *ds {
	case "shopping":
		d = dataset.Shopping(*seed, *scale)
	case "wikipedia":
		d = dataset.Wikipedia(*seed+1, *scale)
	default:
		fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *ds)
		os.Exit(2)
	}

	eng := search.NewEngine(d.Index)
	tr.Begin(obs.StageParse)
	q := search.ParseQuery(d.Index, *query)
	tr.End(obs.StageParse)
	var prune *search.PruneStats
	if *explain {
		prune = &search.PruneStats{}
	}
	tr.Begin(obs.StageSearch)
	results := eng.SearchPruned(q, search.And, *topK, prune)
	tr.End(obs.StageSearch)
	printPruneStats(prune, *topK, len(results))
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "no results for %q\n", *query)
		os.Exit(1)
	}
	// Non-cluster baselines short-circuit before clustering.
	switch *method {
	case "dataclouds":
		dc := &baseline.DataClouds{TopK: *k}
		for i, eq := range dc.Suggest(d.Index, results, q) {
			fmt.Printf("q%d: %q\n", i+1, strings.Join(eq.Terms, ", "))
		}
		return
	case "google":
		log := baseline.NewQueryLog(d.Log)
		for i, eq := range log.Suggest(*query, *k) {
			fmt.Printf("q%d: %q\n", i+1, strings.Join(eq.Terms, ", "))
		}
		return
	}

	// Flat backends (no clustering stage) run through the Backend interface.
	if !baselineMethod && !qec.Methods()[m].Clusters {
		var backend expander.Backend
		switch m {
		case qec.VectorNeighborhood:
			backend = expander.Vector{}
		case qec.LexicalSynonym:
			backend = expander.Lexical{}
		case qec.Orthogonal:
			backend = expander.Orthogonal{}
		}
		start := time.Now()
		out := backend.Expand(&expander.Input{
			Idx: d.Index, Eng: eng, Query: q, Results: results,
			K: *k, Seed: *seed, Synonyms: synonyms, Trace: tr,
		})
		for i, s := range out.Suggestions {
			fmt.Printf("q%d: %q  P=%.2f R=%.2f F=%.2f\n", i+1,
				strings.Join(s.Terms, ", "), s.PRF.Precision, s.PRF.Recall, s.PRF.F)
		}
		fmt.Printf("score (Eq. 1): %.3f   expansion time: %v\n", out.Score, time.Since(start))
		return
	}

	// The paper's pipeline, as the server runs it. The cs baseline labels
	// the clusters itself, so it runs without a solver.
	solver, copts := qec.ClusteredPipeline(m, *k, *seed)
	if baselineMethod {
		solver = nil
	}
	if *explain {
		copts.Trail = &cluster.Trail{}
	}
	run, err := core.ClusterExpand(context.Background(), core.ClusterInput{
		Index: d.Index, Query: q, Results: results, Cluster: copts,
		Solver: solver, Trace: tr, Explain: *explain,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cl := run.Clustering
	printKMeansTrail(copts.Trail, cl)
	fmt.Printf("%d results, %d clusters (k-means, %v)\n",
		len(results), cl.K(), tr.Durations[obs.StageCluster])

	if solver == nil {
		cs := &baseline.CS{LabelSize: 3}
		queries := cs.Suggest(d.Index, cl, q)
		sets := cl.Sets()
		var fs []float64
		for i, eq := range queries {
			retrieved := baseline.RetrieveWithin(d.Index, eq, run.Universe.Docs())
			mm := run.Universe.Measure(retrieved, sets[i])
			fs = append(fs, mm.F)
			fmt.Printf("q%d: %q  P=%.2f R=%.2f F=%.2f\n", i+1,
				strings.Join(eq.Terms, ", "), mm.Precision, mm.Recall, mm.F)
		}
		fmt.Printf("score (Eq. 1): %.3f\n", eval.Score(fs))
		return
	}

	res := run.Result
	for i, ce := range res.Expansions {
		prf := ce.Expanded.PRF
		fmt.Printf("q%d: %q  P=%.2f R=%.2f F=%.2f (cluster of %d)\n", i+1,
			strings.Join(ce.Expanded.Query.Terms, ", "),
			prf.Precision, prf.Recall, prf.F, len(cl.Clusters[i]))
	}
	fmt.Printf("score (Eq. 1): %.3f   expansion time: %v\n", res.Score, tr.Durations[obs.StageSolve])
	if *explain {
		printSolveTrails(run.Problems, res)
	}
}

// printPruneStats renders the retrieval leg of -explain: what the top-K
// pruned path skipped and the heap-threshold trajectory. Nil-safe (no
// -explain, or a full scan that records nothing).
func printPruneStats(ps *search.PruneStats, topK, results int) {
	if ps == nil {
		return
	}
	if !ps.Pruned {
		fmt.Printf("search: full scan (top %d), %d results — no pruning possible\n", topK, results)
		return
	}
	fmt.Printf("search: top-%d pruned path: %d blocks skipped, %d cursor advances, %d docs scored, %d skipped by bound\n",
		topK, ps.BlocksSkipped, ps.CursorAdvances, ps.DocsScored, ps.DocsSkipped)
	if len(ps.Thresholds) > 0 {
		fmt.Printf("search: heap threshold %.4f -> %.4f over %d raises\n",
			ps.Thresholds[0], ps.Thresholds[len(ps.Thresholds)-1], len(ps.Thresholds))
	}
}

// printKMeansTrail renders the clustering leg of -explain: each restart's
// fate under the k-means driver. Nil-safe.
func printKMeansTrail(trail *cluster.Trail, cl *cluster.Clustering) {
	if trail == nil {
		return
	}
	fmt.Printf("kmeans: distortion %.4f after %d restarts, %d iterations total\n",
		cl.Distortion, cl.Restarts, cl.TotalIterations)
	for i, r := range trail.Restarts {
		mark := ""
		if r.Won {
			mark = "  [won]"
		}
		if r.Abandoned {
			mark = "  [abandoned]"
		}
		fmt.Printf("  restart %d: seed %d, %d iterations, distortion %.4f%s\n",
			i, r.Seed, r.Iterations, r.Distortion, mark)
	}
}

// printSolveTrails renders the per-cluster solver leg of -explain: the
// candidate pool each solver saw, the moves it applied (ISKR) or samples it
// probed (PEBC), and what every rejected alternative scored.
func printSolveTrails(problems []*core.Problem, res *core.QECResult) {
	for i, p := range problems {
		if p.Trail == nil || i >= len(res.Expansions) {
			continue
		}
		trail := p.Trail
		final := res.Expansions[i].Expanded.Query
		fmt.Printf("\ncluster %d: %q\n", i, strings.Join(final.Terms, ", "))
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  POOL\tBENEFIT\tCOST\tVALUE")
		for _, row := range trail.Pool {
			fmt.Fprintf(tw, "  %s\t%.3f\t%.3f\t%s\n", row.Keyword, row.Benefit, row.Cost, fmtValue(row.Value))
		}
		tw.Flush()
		for _, s := range trail.Steps {
			fmt.Printf("  step: %s %q value=%s F=%.3f\n", s.Op, s.Keyword, fmtValue(s.Value), s.F)
		}
		for _, s := range trail.Samples {
			fmt.Printf("  sample: x=%.1f%% %q F=%.3f\n", s.X, strings.Join(s.Terms, ", "), s.F)
		}
		if len(trail.Rejected) > 0 {
			tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "  REJECTED\tBENEFIT\tCOST\tVALUE")
			for _, row := range trail.Rejected {
				fmt.Fprintf(tw, "  %s\t%.3f\t%.3f\t%s\n", row.Keyword, row.Benefit, row.Cost, fmtValue(row.Value))
			}
			tw.Flush()
		}
	}
}

// fmtValue renders a benefit/cost ratio, spelling out the zero-cost +Inf
// case.
func fmtValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+inf"
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}

// printMethodHelp renders the registry's capability matrix: one row per
// built-in method plus the CLI-only baselines.
func printMethodHelp(w *os.File) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "METHOD\tALIASES\tPARADIGM\tCLUSTERS\tKNOBS\tSUMMARY")
	for _, mi := range qec.Methods() {
		var knobs []string
		if mi.UsesQuality {
			knobs = append(knobs, "quality")
		}
		if mi.UsesSeed {
			knobs = append(knobs, "seed")
		}
		if mi.UsesSynonyms {
			knobs = append(knobs, "synonyms")
		}
		knob := strings.Join(knobs, ",")
		if knob == "" {
			knob = "-"
		}
		alias := strings.Join(mi.Aliases, ",")
		if alias == "" {
			alias = "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%v\t%s\t%s\n",
			mi.Name, alias, mi.Paradigm, mi.Clusters, knob, mi.Summary)
	}
	fmt.Fprintln(tw, "cs\t-\tbaseline\ttrue\tseed\tcluster-summary labels (CLI baseline)")
	fmt.Fprintln(tw, "dataclouds\t-\tbaseline\tfalse\t-\tterm-frequency data clouds (CLI baseline)")
	fmt.Fprintln(tw, "google\t-\tbaseline\tfalse\t-\tquery-log suggestions (CLI baseline)")
	tw.Flush()
}
