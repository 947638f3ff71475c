package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	qec "repro"
	"repro/internal/degrade"
	"repro/internal/faultinject"
)

const ladderGoldenPath = "testdata/degrade_ladder.json"

// normalizeExpandBody strips the one per-run field (took_ms) and re-marshals
// with sorted keys, so two responses can be compared byte for byte.
func normalizeExpandBody(t *testing.T, data []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("normalize %q: %v", data, err)
	}
	delete(m, "took_ms")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestDegradationLadder is the soak: drive the controller up the full ladder
// with a synthetic pressure ramp, serve requests at every rung, and prove
//
//   - the climb is monotone (the tier never dips while pressure ramps up),
//   - no request is shed (503) before the controller reaches T4,
//   - every response at a given tier is bit-identical to that tier's golden
//     (the per-quality-level determinism contract, pinned at the wire),
//   - recovery descends exactly one rung per MinDwell calm steps back to T0,
//     after which responses are byte-identical to the undegraded golden.
//
// The engine is wrapped in the fault injector (periodic latency spikes), so
// the ladder is exercised with the chaos harness in the loop — the spikes
// shift took_ms only, which normalization strips.
func TestDegradationLadder(t *testing.T) {
	eng := ambiguousEngine(t, qec.WithExpansionCache(64))
	inj := faultinject.Wrap(eng, faultinject.Plan{LatencyEvery: 5, Latency: 2 * time.Millisecond})
	srv := New(inj, Options{MaxConcurrent: 4, RequestTimeout: 10 * time.Second, Degrade: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// press feeds the controller one synthetic sample of the given pressure
	// (queued = p × capacity, everything else calm) — the no-wall-clock
	// contract means the ladder moves on samples, not on time, so the test
	// replays a ramp deterministically.
	press := func(p float64) degrade.Tier {
		return srv.ctrl.Step(degrade.Signals{Queued: int64(p * 8), Capacity: 8})
	}
	expand := func(query string) (*http.Response, []byte) {
		t.Helper()
		return postJSON(t, client, ts.URL+"/expand", ExpandRequest{Query: query, K: 2})
	}

	// The synthetic ramp: pressure rises through every enter threshold. The
	// tier sequence must be monotone non-decreasing — overload never makes
	// the ladder dip.
	ramp := []struct {
		p    float64
		want degrade.Tier
	}{
		{0.5, degrade.Tier0},  // below every enter threshold
		{1.0, degrade.Tier1},  // enterAt[1]
		{0.75, degrade.Tier1}, // inside the T1 hysteresis band: no flap
		{2.0, degrade.Tier2},
		{3.0, degrade.Tier3},
		{5.0, degrade.Tier4},
	}

	goldens := map[string]string{}
	record := func(phase string, data []byte) {
		t.Helper()
		norm := normalizeExpandBody(t, data)
		if prev, ok := goldens[phase]; ok && prev != norm {
			t.Fatalf("phase %s: responses within one tier differ:\n%s\n%s", phase, prev, norm)
		}
		goldens[phase] = norm
	}

	// serveAt runs the same request three times and insists every response
	// is bit-identical — the within-tier determinism leg.
	serveAt := func(phase, query string, wantTier degrade.Tier) {
		t.Helper()
		for i := 0; i < 3; i++ {
			resp, data := expand(query)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("phase %s: status = %d, body %s", phase, resp.StatusCode, data)
			}
			if got := resp.Header.Get("X-Qec-Tier"); got != wantTier.String() {
				t.Fatalf("phase %s: X-Qec-Tier = %q, want %q", phase, got, wantTier)
			}
			er := decode[ExpandResponse](t, data)
			if er.Degraded != int(wantTier) {
				t.Fatalf("phase %s: degraded = %d, want %d", phase, er.Degraded, wantTier)
			}
			record(phase, data)
		}
	}

	// --- Climb ---
	prev := degrade.Tier0
	for _, step := range ramp {
		got := press(step.p)
		if got != step.want {
			t.Fatalf("pressure %.2f: tier = %v, want %v", step.p, got, step.want)
		}
		if got < prev {
			t.Fatalf("climb not monotone: %v after %v", got, prev)
		}
		prev = got

		switch got {
		case degrade.Tier0:
			serveAt("tier0", "apple", degrade.Tier0)
		case degrade.Tier1:
			serveAt("tier1", "apple", degrade.Tier1)
		case degrade.Tier2:
			served := srv.expandHist[qec.QualityMinimal].Snapshot().Count
			serveAt("tier2", "apple", degrade.Tier2)
			// T2 raises the quality floor to minimal: all three requests
			// are labelled minimal, and the first one ran the pipeline there.
			if got := srv.expandHist[qec.QualityMinimal].Snapshot().Count - served; got != 3 {
				t.Fatalf("tier2: %d requests labelled minimal, want 3", got)
			}
			if got := eng.Metrics().PerQuality[qec.QualityMinimal].Snapshot().Count; got != 1 {
				t.Fatalf("tier2: %d pipeline runs at minimal, want 1", got)
			}
		case degrade.Tier3:
			// Hit: "apple" was computed (and cached) back at T0 under these
			// exact options — T3 serves that full-fidelity answer.
			serveAt("tier3_hit", "apple", degrade.Tier3)
			// Miss: a query never seen before falls back to the fast
			// single-cluster path through the worker pool.
			serveAt("tier3_miss", "apple stock", degrade.Tier3)
		}
		if got < degrade.Tier4 && srv.sheds.Load() != 0 {
			t.Fatalf("shed a request at %v — 503s are reserved for T4", got)
		}
	}

	// --- T4: shedding ---
	if srv.sheds.Load() != 0 {
		t.Fatalf("sheds = %d before any T4 request", srv.sheds.Load())
	}
	resp, data := expand("apple")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("T4 status = %d, body %s; want 503", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Qec-Tier"); got != "T4" {
		t.Fatalf("T4 X-Qec-Tier = %q", got)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 30 {
		t.Fatalf("Retry-After = %q, want an integer in [1,30]", resp.Header.Get("Retry-After"))
	}
	if srv.sheds.Load() != 1 {
		t.Fatalf("sheds = %d, want 1", srv.sheds.Load())
	}

	// The shed is notable: it must be in the flight recorder under
	// outcome=rejected, stamped with its tier.
	dresp, err := client.Get(ts.URL + "/debug/requests?outcome=rejected")
	if err != nil {
		t.Fatal(err)
	}
	ddata, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	dbg := decode[DebugRequestsResponse](t, ddata)
	foundShed := false
	for _, rec := range dbg.Records {
		if rec.Endpoint == "expand" && rec.Status == http.StatusServiceUnavailable && rec.Tier == 4 {
			foundShed = true
		}
	}
	if !foundShed {
		t.Fatalf("shed request not in flight recorder (outcome=rejected): %s", ddata)
	}

	// --- Recovery: one rung per MinDwell calm steps, no skipping ---
	wantDescent := []degrade.Tier{
		degrade.Tier4, degrade.Tier4, degrade.Tier3,
		degrade.Tier3, degrade.Tier3, degrade.Tier2,
		degrade.Tier2, degrade.Tier2, degrade.Tier1,
		degrade.Tier1, degrade.Tier1, degrade.Tier0,
	}
	for i, want := range wantDescent {
		if got := press(0); got != want {
			t.Fatalf("calm step %d: tier = %v, want %v", i+1, got, want)
		}
	}

	// Recovered responses are byte-identical to the undegraded golden.
	serveAt("tier0", "apple", degrade.Tier0)

	// The cache-only hit serves exactly the full-fidelity answer T0
	// computed — identical bytes except for the stamped tier.
	hit := strings.Replace(goldens["tier3_hit"], `"degraded":3,`, "", 1)
	if hit != goldens["tier0"] {
		t.Fatalf("tier3 cache hit is not the T0 answer:\n%s\n%s", goldens["tier3_hit"], goldens["tier0"])
	}

	// --- /stats and /metrics surfaces ---
	sresp, err := client.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	sdata, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	stats := decode[StatsResponse](t, sdata)
	if stats.Degrade == nil {
		t.Fatal("/stats has no degrade block with the controller enabled")
	}
	if stats.Degrade.Tier != "T0" || stats.Degrade.Shed != 1 {
		t.Fatalf("/stats degrade = %+v; want tier T0, shed 1", stats.Degrade)
	}
	if stats.Degrade.Transitions != 8 { // 4 up + 4 down
		t.Fatalf("transitions = %d, want 8", stats.Degrade.Transitions)
	}
	if len(stats.Degrade.Latency) == 0 {
		t.Fatal("/stats degrade block has no per-tier latency")
	}

	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"qec_degrade_tier 0",
		"qec_degrade_transitions_total 8",
		"qec_shed_total 1",
		`qec_degrade_request_duration_seconds_count{tier="T0"}`,
	} {
		if !strings.Contains(string(mdata), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// The injector's spikes actually fired during the soak.
	if inj.Counts().Spikes == 0 {
		t.Fatal("fault injector never fired — the soak ran without its chaos harness")
	}

	// --- Golden comparison ---
	if os.Getenv("QEC_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(ladderGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(goldens, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ladderGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", ladderGoldenPath)
		return
	}
	raw, err := os.ReadFile(ladderGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with QEC_UPDATE_GOLDEN=1): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(goldens) {
		t.Fatalf("golden has %d phases, run produced %d", len(want), len(goldens))
	}
	for phase, body := range goldens {
		if want[phase] != body {
			t.Errorf("phase %s diverged from golden:\ngot  %s\nwant %s", phase, body, want[phase])
		}
	}
}

// TestDegradeMaxTierForbidsShedding: with -degrade-max-tier 3 the controller
// saturates at cache-only — even absurd pressure never sheds.
func TestDegradeMaxTierForbidsShedding(t *testing.T) {
	eng := ambiguousEngine(t, qec.WithExpansionCache(16))
	srv := New(eng, Options{MaxConcurrent: 2, Degrade: true, DegradeMaxTier: 3})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 5; i++ {
		if got := srv.ctrl.Step(degrade.Signals{Queued: 100, Capacity: 1}); got != degrade.Tier3 {
			t.Fatalf("tier = %v, want clamp at T3", got)
		}
	}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/expand", ExpandRequest{Query: "apple", K: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s; want 200 (T3 fallback, never shed)", resp.StatusCode, data)
	}
	if srv.sheds.Load() != 0 {
		t.Fatalf("sheds = %d with MaxTier 3", srv.sheds.Load())
	}
}

// TestDegradeDisabledBytesUnchanged: with the controller off, responses carry
// no tier header and no degraded field — the wire bytes of an undegraded
// server are exactly the pre-degradation bytes.
func TestDegradeDisabledBytesUnchanged(t *testing.T) {
	ts := httptest.NewServer(New(ambiguousEngine(t), Options{}).Handler())
	defer ts.Close()
	resp, data := postJSON(t, ts.Client(), ts.URL+"/expand", ExpandRequest{Query: "apple", K: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if h := resp.Header.Get("X-Qec-Tier"); h != "" {
		t.Fatalf("X-Qec-Tier = %q with degradation disabled", h)
	}
	if strings.Contains(string(data), `"degraded"`) {
		t.Fatalf("response carries a degraded field with degradation disabled: %s", data)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"original", "queries", "clusters", "score", "took_ms"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("response missing %q: %s", key, data)
		}
	}
}

// TestDeadlineEscalation: a request arriving with almost no remaining budget
// is individually escalated to cache-only even while the ladder sits at T0.
func TestDeadlineEscalation(t *testing.T) {
	eng := ambiguousEngine(t, qec.WithExpansionCache(16))
	srv := New(eng, Options{Degrade: true, RequestTimeout: 10 * time.Second})
	if srv.ctrl.Tier() != degrade.Tier0 {
		t.Fatal("controller not at T0")
	}
	// Warm the cache so the escalated request can be answered from it.
	if _, err := eng.ExpandTraced(context.Background(), "apple", qec.ExpandOptions{K: 2}, nil); err != nil {
		t.Fatal(err)
	}
	// TightDeadline = RequestTimeout/4 = 2.5s. 100ms remaining < 2.5s/4.
	dec := srv.ctrl.Admit(100 * time.Millisecond)
	if dec.Tier != degrade.Tier3 || !dec.CacheOnly {
		t.Fatalf("decision = %+v; want T3 cache-only under a tight deadline", dec)
	}
	if dec.Shed {
		t.Fatal("deadline escalation must never shed")
	}
}
