package experiment

import (
	"context"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/par"
	"repro/internal/search"
	"repro/internal/userstudy"
)

// Study is the evaluated state of every test query under every approach —
// the raw material from which each figure is derived.
type Study struct {
	runner  *Runner
	Runs    []*QueryRun
	Methods [][]MethodQueries // parallel to Runs

	// Serial re-timing pass, computed lazily: RunStudy fans queries across
	// workers, so the Elapsed fields in Methods (and the ClusterTime in
	// Runs) are measured under CPU contention and are unusable as per-method
	// costs. Figure6 and ClusteringTime re-run their measurements serially.
	timingOnce   sync.Once
	serialTimes  [][]MethodQueries
	serialKMeans []time.Duration
}

// serialTiming re-executes every query's method suite and clustering one at
// a time, so wall-clock measurements reflect per-method cost rather than
// whatever contention the parallel study fan-out produced. Method outputs
// are identical to s.Methods (everything is deterministic); only the
// Elapsed measurements differ.
func (s *Study) serialTiming() ([][]MethodQueries, []time.Duration) {
	s.timingOnce.Do(func() {
		s.serialTimes = make([][]MethodQueries, len(s.Runs))
		s.serialKMeans = make([]time.Duration, len(s.Runs))
		for i, qr := range s.Runs {
			s.serialKMeans[i] = s.runner.Prepare(qr.Dataset, qr.TQ).ClusterTime
			s.serialTimes[i] = s.runner.RunAll(qr)
		}
	})
	return s.serialTimes, s.serialKMeans
}

// RunStudy prepares and evaluates all 20 test queries once. Evaluation fans
// out through par.For (queries are independent); collection is by index, so
// the study is identical to a serially built one.
func (r *Runner) RunStudy() *Study {
	runs := r.AllQueryRuns()
	methods := make([][]MethodQueries, len(runs))
	par.For(len(runs), func(i int) {
		methods[i] = r.RunAll(runs[i])
	})
	return &Study{runner: r, Runs: runs, Methods: methods}
}

// --- Figures 1 & 2: individual query scores -------------------------------

// MethodSummary pairs an approach with an aggregated rater summary.
type MethodSummary struct {
	Method  string
	Summary userstudy.Summary
}

// Figure1And2 reproduces the individual-query part of the user study: every
// rater scores every expanded query of every approach; Figure 1 is the mean
// score per approach, Figure 2 the option percentages.
func (s *Study) Figure1And2() []MethodSummary {
	byMethod := map[string][]userstudy.Judgment{}
	for i, qr := range s.Runs {
		for _, mq := range s.Methods[i] {
			for _, q := range mq.Queries {
				rel := s.runner.relatedness(qr, q)
				help := s.runner.helpfulness(qr, q)
				if mq.Method == MethodGoogle {
					// Raters judge log suggestions by real-world meaning:
					// a popular suggestion is never "not related", though
					// it may still lack results-orientation (option B).
					if pop := s.runner.logPopularity(qr.Dataset, q); pop > 0 {
						if floor := 0.35 + 0.3*pop; rel < floor {
							rel = floor
						}
					}
				}
				byMethod[mq.Method] = append(byMethod[mq.Method],
					s.runner.pool.JudgeIndividual(rel, help)...)
			}
		}
	}
	return summarizeByMethod(byMethod)
}

// --- Figures 3 & 4: collective scores --------------------------------------

// Figure3And4 reproduces the collective part: per user query, raters judge
// each approach's whole set of expanded queries for comprehensiveness and
// diversity; Figure 3 is the mean collective score, Figure 4 the option
// percentages.
func (s *Study) Figure3And4() []MethodSummary {
	byMethod := map[string][]userstudy.Judgment{}
	for i, qr := range s.Runs {
		for _, mq := range s.Methods[i] {
			sets := s.runner.resultSets(qr, mq.Queries)
			compr := eval.Comprehensiveness(sets, len(qr.Universe.Docs()), qr.Universe.DenseWeights())
			div := eval.Diversity(sets)
			byMethod[mq.Method] = append(byMethod[mq.Method],
				s.runner.pool.JudgeCollective(compr, div)...)
		}
	}
	return summarizeByMethod(byMethod)
}

func summarizeByMethod(byMethod map[string][]userstudy.Judgment) []MethodSummary {
	keys := make([]string, 0, len(byMethod))
	for m := range byMethod {
		keys = append(keys, m)
	}
	sortByMethodOrder(keys)
	out := make([]MethodSummary, 0, len(keys))
	for _, m := range keys {
		out = append(out, MethodSummary{Method: m, Summary: userstudy.Summarize(byMethod[m])})
	}
	return out
}

// --- Figure 5: Eq. 1 scores per query --------------------------------------

// ScoreRow is one query's Eq. 1 scores for the cluster-based approaches.
type ScoreRow struct {
	QueryID string
	Scores  map[string]float64 // ISKR, PEBC, F-measure, CS
}

// Figure5 reproduces Figure 5(a) (datasetName "shopping") or 5(b)
// ("wikipedia").
func (s *Study) Figure5(datasetName string) []ScoreRow {
	var out []ScoreRow
	for i, qr := range s.Runs {
		if qr.Dataset.Name != datasetName {
			continue
		}
		row := ScoreRow{QueryID: qr.TQ.ID, Scores: map[string]float64{}}
		for _, mq := range s.Methods[i] {
			if mq.Applicable {
				row.Scores[mq.Method] = mq.Score
			}
		}
		out = append(out, row)
	}
	return out
}

// --- Figure 6: expansion time per query ------------------------------------

// TimeRow is one query's expansion time per approach.
type TimeRow struct {
	QueryID string
	Times   map[string]time.Duration // all five implemented methods
}

// Figure6 reproduces Figure 6(a)/(b): query expansion time (clustering time
// excluded, reported separately as in §5.3). Times come from the serial
// re-timing pass, uncontaminated by the parallel study fan-out.
func (s *Study) Figure6(datasetName string) []TimeRow {
	times, _ := s.serialTiming()
	var out []TimeRow
	for i, qr := range s.Runs {
		if qr.Dataset.Name != datasetName {
			continue
		}
		row := TimeRow{QueryID: qr.TQ.ID, Times: map[string]time.Duration{}}
		for _, mq := range times[i] {
			row.Times[mq.Method] = mq.Elapsed
		}
		out = append(out, row)
	}
	return out
}

// ClusteringTime returns the mean k-means time per dataset (§5.3 prose:
// 0.02s shopping, 0.35s Wikipedia on the paper's hardware), measured by the
// serial re-timing pass.
func (s *Study) ClusteringTime(datasetName string) time.Duration {
	_, kmeans := s.serialTiming()
	var total time.Duration
	n := 0
	for i, qr := range s.Runs {
		if qr.Dataset.Name != datasetName {
			continue
		}
		total += kmeans[i]
		n++
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// --- Figure 7: scalability --------------------------------------------------

// ScalabilityRow is one point of the Figure 7 sweep: QW2 "columbia" with n
// results; times include clustering + generation, as in the paper.
type ScalabilityRow struct {
	NumResults int
	ISKR       time.Duration
	PEBC       time.Duration
}

// Figure7 runs the scalability sweep over result counts (paper: 100..500 in
// steps of 100, query QW2 "columbia").
func (r *Runner) Figure7(counts []int) []ScalabilityRow {
	if len(counts) == 0 {
		counts = []int{100, 200, 300, 400, 500}
	}
	// A corpus big enough for the largest count: columbia has 34 docs per
	// scale unit. The dataset is memoized on the Runner — repeated sweeps
	// (benchmark iterations, figure regeneration) pay generation once.
	maxN := 0
	for _, n := range counts {
		if n > maxN {
			maxN = n
		}
	}
	d := r.ScaledWiki(maxN/34 + 1)
	eng := search.NewEngine(d.Index)
	q := search.ParseQuery(d.Index, "columbia")
	all := eng.Search(q, search.And, 0)

	var out []ScalabilityRow
	for _, n := range counts {
		if n > len(all) {
			n = len(all)
		}
		results := all[:n]
		timed := func(ex core.Expander) time.Duration {
			start := time.Now()
			core.ClusterExpand(context.Background(), core.ClusterInput{
				Index: d.Index, Query: q, Results: results, Solver: ex,
				Cluster: cluster.Options{K: 3, Seed: r.Config.Seed, PlusPlus: true},
			})
			return time.Since(start)
		}
		out = append(out, ScalabilityRow{
			NumResults: n,
			ISKR:       timed(&core.ISKR{}),
			PEBC: timed(&core.PEBC{Segments: r.Config.PEBCSegments,
				Iterations: r.Config.PEBCIterations, Seed: r.Config.Seed}),
		})
	}
	return out
}

// --- Figures 8 & 9: expanded-query listings ---------------------------------

// ListingEntry is one approach's expanded queries for one test query,
// rendered as strings (the Figures 8–9 format).
type ListingEntry struct {
	QueryID string
	Method  string
	Queries []string
}

// Listing renders every approach's expanded queries for every test query.
func (s *Study) Listing() []ListingEntry {
	var out []ListingEntry
	for i, qr := range s.Runs {
		for _, mq := range s.Methods[i] {
			entry := ListingEntry{QueryID: qr.TQ.ID, Method: mq.Method}
			for _, q := range mq.Queries {
				entry.Queries = append(entry.Queries, renderQuery(qr, q))
			}
			out = append(out, entry)
		}
	}
	return out
}

// renderQuery formats an expanded query the way Figures 8–9 do: composite
// triplet terms as "entity: attribute: value", words comma-separated after
// the user query.
func renderQuery(qr *QueryRun, q search.Query) string {
	out := ""
	for i, t := range q.Terms {
		if i > 0 {
			out += ", "
		}
		if trip, ok := parseComposite(t); ok {
			out += trip
			continue
		}
		out += t
	}
	return out
}

func parseComposite(term string) (string, bool) {
	first, rest := -1, -1
	for i := 0; i < len(term); i++ {
		if term[i] == ':' {
			if first < 0 {
				first = i
			} else {
				rest = i
				break
			}
		}
	}
	if first < 0 || rest < 0 {
		return "", false
	}
	return term[:first] + ": " + term[first+1:rest] + ": " + term[rest+1:], true
}

// Table1 returns the query sets, in the paper's layout.
func (r *Runner) Table1() (wikipedia, shopping []dataset.TestQuery) {
	return r.Wiki.Queries, r.Shopping.Queries
}
