package experiment

import (
	"sync"
	"testing"

	"repro/internal/dataset"
)

// The full study is the expensive fixture; build it once for all tests.
var (
	studyOnce sync.Once
	theRunner *Runner
	theStudy  *Study
)

func sharedStudy(t *testing.T) (*Runner, *Study) {
	t.Helper()
	studyOnce.Do(func() {
		theRunner = NewRunner(DefaultConfig())
		theStudy = theRunner.RunStudy()
	})
	return theRunner, theStudy
}

func TestTable1(t *testing.T) {
	r, _ := sharedStudy(t)
	wiki, shop := r.Table1()
	if len(wiki) != 10 || len(shop) != 10 {
		t.Fatalf("Table 1 = %d + %d queries, want 10 + 10", len(wiki), len(shop))
	}
	if wiki[5].ID != "QW6" || wiki[5].Raw != "java" {
		t.Errorf("QW6 = %+v", wiki[5])
	}
	if shop[0].ID != "QS1" || shop[0].Raw != "canon products" {
		t.Errorf("QS1 = %+v", shop[0])
	}
}

func TestStudyCoversAllQueriesAndMethods(t *testing.T) {
	_, s := sharedStudy(t)
	if len(s.Runs) != 20 {
		t.Fatalf("%d runs, want 20", len(s.Runs))
	}
	for i, ms := range s.Methods {
		if len(ms) != 6 {
			t.Errorf("run %d evaluated %d methods, want 6", i, len(ms))
		}
	}
}

func TestFigure5ShapeHolds(t *testing.T) {
	_, s := sharedStudy(t)
	for _, ds := range []string{"shopping", "wikipedia"} {
		rows := s.Figure5(ds)
		if len(rows) != 10 {
			t.Fatalf("%s: %d rows, want 10", ds, len(rows))
		}
		var iskr, pebc, cs float64
		for _, row := range rows {
			for m, v := range row.Scores {
				if v < 0 || v > 1+1e-9 {
					t.Errorf("%s %s %s score %v out of range", ds, row.QueryID, m, v)
				}
			}
			iskr += row.Scores[MethodISKR]
			pebc += row.Scores[MethodPEBC]
			cs += row.Scores[MethodCS]
		}
		// The paper's headline: ISKR and PEBC clearly beat CS on average.
		if iskr <= cs || pebc <= cs {
			t.Errorf("%s: mean ISKR %.2f / PEBC %.2f not above CS %.2f",
				ds, iskr/10, pebc/10, cs/10)
		}
		// And they achieve high absolute scores (many perfect on shopping).
		if iskr/10 < 0.7 {
			t.Errorf("%s: mean ISKR score %.2f too low", ds, iskr/10)
		}
	}
}

func TestFigure5ShoppingHasPerfectScores(t *testing.T) {
	_, s := sharedStudy(t)
	perfect := 0
	for _, row := range s.Figure5("shopping") {
		if row.Scores[MethodISKR] > 0.999 {
			perfect++
		}
	}
	// "On the shopping data, both algorithms achieve perfect score for many
	// queries."
	if perfect < 5 {
		t.Errorf("only %d shopping queries with perfect ISKR score, want >= 5", perfect)
	}
}

func TestFigure1And2Shape(t *testing.T) {
	_, s := sharedStudy(t)
	rows := s.Figure1And2()
	if len(rows) != 6 {
		t.Fatalf("%d methods, want 6", len(rows))
	}
	byMethod := map[string]float64{}
	for _, ms := range rows {
		byMethod[ms.Method] = ms.Summary.MeanScore
		sum := ms.Summary.PctA + ms.Summary.PctB + ms.Summary.PctC
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%s: option percentages sum to %v", ms.Method, sum)
		}
		if ms.Summary.MeanScore < 1 || ms.Summary.MeanScore > 5 {
			t.Errorf("%s: mean score %v out of 1..5", ms.Method, ms.Summary.MeanScore)
		}
	}
	// ISKR and PEBC above CS (Figure 1's ordering).
	if byMethod[MethodISKR] <= byMethod[MethodCS] {
		t.Errorf("ISKR %.2f not above CS %.2f", byMethod[MethodISKR], byMethod[MethodCS])
	}
	if byMethod[MethodPEBC] <= byMethod[MethodCS] {
		t.Errorf("PEBC %.2f not above CS %.2f", byMethod[MethodPEBC], byMethod[MethodCS])
	}
}

func TestFigure3And4Shape(t *testing.T) {
	_, s := sharedStudy(t)
	rows := s.Figure3And4()
	byMethod := map[string]MethodSummary{}
	for _, ms := range rows {
		byMethod[ms.Method] = ms
	}
	// ISKR/PEBC are comprehensive and diverse: mostly option C, scores above
	// every baseline (Figure 3/4's headline).
	for _, m := range []string{MethodISKR, MethodPEBC} {
		if byMethod[m].Summary.PctC < 60 {
			t.Errorf("%s: only %.0f%% option C", m, byMethod[m].Summary.PctC)
		}
		for _, base := range []string{MethodCS, MethodDataClouds, MethodGoogle} {
			if byMethod[m].Summary.MeanScore <= byMethod[base].Summary.MeanScore {
				t.Errorf("%s %.2f not above %s %.2f", m,
					byMethod[m].Summary.MeanScore, base, byMethod[base].Summary.MeanScore)
			}
		}
	}
	// Google is mostly "either not comprehensive or not diverse" (option B):
	// its suggestions miss senses or miss the corpus.
	if g := byMethod[MethodGoogle]; g.Summary.PctB < 40 {
		t.Errorf("Google: only %.0f%% option B", g.Summary.PctB)
	}
}

func TestFigure6TimesRecorded(t *testing.T) {
	_, s := sharedStudy(t)
	for _, ds := range []string{"shopping", "wikipedia"} {
		rows := s.Figure6(ds)
		if len(rows) != 10 {
			t.Fatalf("%s: %d rows", ds, len(rows))
		}
		for _, row := range rows {
			for m, d := range row.Times {
				if d <= 0 {
					t.Errorf("%s %s %s: non-positive time", ds, row.QueryID, m)
				}
			}
		}
		// This test used to pin the paper's Figure 6 ordering ("Data clouds
		// is generally faster than both ISKR and PEBC"), which held for this
		// repo's original map-backed expansion core. The dense-ID/bitset
		// core inverted it: ISKR, PEBC and even the F-measure variant now
		// undercut DataClouds' pass over the ranked results, so only the
		// recording of per-method times is asserted here. The deviation is
		// documented in the README's Performance section.
	}
}

func TestClusteringTimePositive(t *testing.T) {
	_, s := sharedStudy(t)
	for _, ds := range []string{"shopping", "wikipedia"} {
		if s.ClusteringTime(ds) <= 0 {
			t.Errorf("%s: clustering time not positive", ds)
		}
	}
}

func TestFigure7GrowsWithResultCount(t *testing.T) {
	r, _ := sharedStudy(t)
	counts := []int{100, 300, 500}
	// One untimed sweep first: the first point would otherwise also pay the
	// cold start (corpus generation, caches, heap growth). Then each point
	// keeps its minimum over three sweeps, so one descheduled sample cannot
	// invert the comparison.
	r.Figure7(counts)
	rows := r.Figure7(counts)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for sweep := 1; sweep < 3; sweep++ {
		for i, row := range r.Figure7(counts) {
			rows[i].ISKR = min(rows[i].ISKR, row.ISKR)
			rows[i].PEBC = min(rows[i].PEBC, row.PEBC)
		}
	}
	// Loose monotonicity: 500-result runs must cost more than 100-result
	// runs (the paper reports linear growth; wall-clock is noisy, so only
	// the endpoints are compared).
	if rows[2].ISKR <= rows[0].ISKR {
		t.Errorf("ISKR time did not grow: %v .. %v", rows[0].ISKR, rows[2].ISKR)
	}
	if rows[2].PEBC <= rows[0].PEBC {
		t.Errorf("PEBC time did not grow: %v .. %v", rows[0].PEBC, rows[2].PEBC)
	}
	for _, row := range rows {
		if row.NumResults < 100 {
			t.Errorf("row with %d results", row.NumResults)
		}
	}
}

func TestListingCoversEverything(t *testing.T) {
	_, s := sharedStudy(t)
	entries := s.Listing()
	if len(entries) != 20*6 {
		t.Fatalf("%d listing entries, want 120", len(entries))
	}
	seen := map[string]map[string]bool{}
	for _, e := range entries {
		if seen[e.QueryID] == nil {
			seen[e.QueryID] = map[string]bool{}
		}
		seen[e.QueryID][e.Method] = true
	}
	for qid, methods := range seen {
		if len(methods) != 6 {
			t.Errorf("%s: %d methods", qid, len(methods))
		}
	}
}

func TestListingRendersComposites(t *testing.T) {
	_, s := sharedStudy(t)
	found := false
	for _, e := range s.Listing() {
		for _, q := range e.Queries {
			if containsSub(q, ": category: ") {
				found = true
			}
		}
	}
	if !found {
		t.Error("no listing renders a composite triplet in 'entity: attribute: value' form")
	}
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestPrepareUniverseMatchesTopK(t *testing.T) {
	r, _ := sharedStudy(t)
	qr := r.Prepare(r.Wiki, dataset.TestQuery{ID: "QW2", Raw: "columbia"})
	if len(qr.Universe.Docs()) > r.Config.TopK {
		t.Errorf("universe %d exceeds TopK %d", len(qr.Universe.Docs()), r.Config.TopK)
	}
	if qr.Clustering.K() < 2 {
		t.Errorf("K = %d", qr.Clustering.K())
	}
	if len(qr.Problems) != qr.Clustering.K() {
		t.Errorf("%d problems for %d clusters", len(qr.Problems), qr.Clustering.K())
	}
	total := 0
	for _, ids := range qr.Clustering.Clusters {
		total += len(ids)
	}
	if total != len(qr.Universe.Docs()) {
		t.Errorf("clusters cover %d of %d results", total, len(qr.Universe.Docs()))
	}
}

func TestLogPopularity(t *testing.T) {
	r, _ := sharedStudy(t)
	// "java tutorials" is the most popular wiki log entry (990).
	qr := r.Prepare(r.Wiki, dataset.TestQuery{ID: "QW6", Raw: "java"})
	queries := r.RunAll(qr)
	var google *MethodQueries
	for i := range queries {
		if queries[i].Method == MethodGoogle {
			google = &queries[i]
		}
	}
	if google == nil || len(google.Queries) == 0 {
		t.Fatal("no Google suggestions for java")
	}
	pop := r.logPopularity(r.Wiki, google.Queries[0])
	if pop <= 0 || pop > 1 {
		t.Errorf("popularity = %v, want (0,1]", pop)
	}
}
