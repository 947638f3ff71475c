package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	qec "repro"
	"repro/internal/obs"
)

// ambiguousEngine builds a corpus where "apple" has two senses, so /expand
// produces distinct per-cluster queries.
func ambiguousEngine(t testing.TB, opts ...qec.Option) *qec.Engine {
	t.Helper()
	e := qec.NewEngine(append([]qec.Option{qec.WithSeed(7)}, opts...)...)
	fruit := []string{"orchard harvest", "pie cider", "tree juice", "crop farm"}
	tech := []string{"iphone launch", "store retail", "laptop software", "stock shares"}
	for i := 0; i < 4; i++ {
		e.AddText(fmt.Sprintf("fruit-%d", i), "apple fruit "+fruit[i])
		e.AddText(fmt.Sprintf("tech-%d", i), "apple company "+tech[i])
	}
	e.Build()
	return e
}

func postJSON(t testing.TB, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decode[T any](t testing.TB, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decode %q: %v", data, err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(New(ambiguousEngine(t), Options{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; want 200", resp.StatusCode)
	}
	h := decode[HealthResponse](t, data)
	if h.Status != "ok" || h.Docs != 8 {
		t.Fatalf("health = %+v; want ok/8", h)
	}
}

func TestSearchRoundTrip(t *testing.T) {
	ts := httptest.NewServer(New(ambiguousEngine(t), Options{}).Handler())
	defer ts.Close()
	resp, data := postJSON(t, ts.Client(), ts.URL+"/search", SearchRequest{Query: "apple fruit", TopK: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	sr := decode[SearchResponse](t, data)
	if sr.Count != 3 || len(sr.Hits) != 3 {
		t.Fatalf("count = %d, hits = %d; want 3", sr.Count, len(sr.Hits))
	}
	for i := 1; i < len(sr.Hits); i++ {
		if sr.Hits[i].Score > sr.Hits[i-1].Score {
			t.Fatal("hits must be ranked by descending score")
		}
	}
	if sr.Hits[0].Title == "" {
		t.Fatal("hit titles should be populated")
	}
}

func TestExpandRoundTrip(t *testing.T) {
	ts := httptest.NewServer(New(ambiguousEngine(t), Options{}).Handler())
	defer ts.Close()
	// Clustered methods return one query per cluster; the alternative
	// paradigms (vector, lexical, orthogonal) return a flat suggestion list
	// with no clusters.
	clustered := map[string]bool{"": true, "iskr": true, "pebc": true, "deltaf": true, "or": true}
	for _, method := range []string{"", "iskr", "pebc", "deltaf", "or", "vector", "lexical", "orthogonal"} {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/expand",
			ExpandRequest{Query: "apple", K: 2, Method: method})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("method %q: status = %d, body %s", method, resp.StatusCode, data)
		}
		er := decode[ExpandResponse](t, data)
		if len(er.Original) == 0 || er.Original[0] != "apple" {
			t.Fatalf("method %q: original = %v", method, er.Original)
		}
		if len(er.Queries) == 0 {
			t.Fatalf("method %q: no queries", method)
		}
		if clustered[method] {
			if len(er.Clusters) != len(er.Queries) {
				t.Fatalf("method %q: %d queries, %d clusters", method, len(er.Queries), len(er.Clusters))
			}
		} else if len(er.Clusters) != 0 {
			t.Fatalf("method %q: non-clustered paradigm returned %d clusters", method, len(er.Clusters))
		}
		if er.Score <= 0 {
			t.Fatalf("method %q: score = %v; want > 0", method, er.Score)
		}
	}
}

// TestErrorPaths pins the status of every malformed or rejected request,
// plus the accepted edge cases of the strict decoder (null fields and
// case-insensitive keys, as encoding/json matches them).
func TestErrorPaths(t *testing.T) {
	ts := httptest.NewServer(New(ambiguousEngine(t), Options{}).Handler())
	defer ts.Close()
	client := ts.Client()

	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
	}{
		{"expand empty query", "POST", "/expand", `{"query": "  "}`, http.StatusBadRequest},
		{"search empty query", "POST", "/search", `{}`, http.StatusBadRequest},
		{"expand no results", "POST", "/expand", `{"query": "zzznope"}`, http.StatusNotFound},
		{"bad json", "POST", "/expand", `{"query": `, http.StatusBadRequest},
		{"unknown field", "POST", "/expand", `{"query": "apple", "bogus": 1}`, http.StatusBadRequest},
		{"unknown method", "POST", "/expand", `{"query": "apple", "method": "magic"}`, http.StatusBadRequest},
		// The decoder is encoding/json with DisallowUnknownFields and a
		// trailing-data check; these rows pin its strictness at the HTTP level.
		{"trailing data", "POST", "/expand", `{"query":"apple"} x`, http.StatusBadRequest},
		{"search trailing data", "POST", "/search", `{"query":"apple"} x`, http.StatusBadRequest},
		{"string for int", "POST", "/expand", `{"query":"apple","k":"two"}`, http.StatusBadRequest},
		{"fraction for int", "POST", "/search", `{"query":"apple","top_k":1.5}`, http.StatusBadRequest},
		{"null field", "POST", "/expand", `{"query":"apple","k":null}`, http.StatusOK},
		{"removed parallel field", "POST", "/expand", `{"query":"apple","parallel":true}`, http.StatusBadRequest},
		{"case-folded key", "POST", "/expand", `{"QUERY":"apple"}`, http.StatusOK},
		{"search case-folded key", "POST", "/search", `{"Top_K":3,"query":"apple"}`, http.StatusOK},
		{"GET on expand", "GET", "/expand", ``, http.StatusMethodNotAllowed},
		{"POST on healthz", "POST", "/healthz", ``, http.StatusMethodNotAllowed},
		{"POST on stats", "POST", "/stats", ``, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.wantCode {
			t.Errorf("%s: status = %d; want %d (body %s)", tc.name, resp.StatusCode, tc.wantCode, data)
		}
		if tc.wantCode == http.StatusOK {
			continue
		}
		e := decode[ErrorResponse](t, data)
		if e.Error == "" {
			t.Errorf("%s: error body should carry a message, got %s", tc.name, data)
		}
		if tc.name == "unknown method" {
			// The rejection is qec's one canonical error: it must enumerate
			// every valid method so the caller can self-correct.
			for _, name := range qec.MethodNames() {
				if !strings.Contains(e.Error, name) {
					t.Errorf("unknown-method error %q does not enumerate %q", e.Error, name)
				}
			}
		}
	}
}

// TestConcurrentExpandCoalesces is the acceptance scenario: 32 concurrent
// identical /expand requests compute exactly once, and a second wave is
// served from the cache (hit rate > 0).
func TestConcurrentExpandCoalesces(t *testing.T) {
	eng := ambiguousEngine(t, qec.WithExpansionCache(64))
	ts := httptest.NewServer(New(eng, Options{MaxConcurrent: 64}).Handler())
	defer ts.Close()
	client := ts.Client()

	wave := func() {
		t.Helper()
		const n = 32
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				resp, data := postJSON(t, client, ts.URL+"/expand", ExpandRequest{Query: "apple", K: 2})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status = %d, body %s", resp.StatusCode, data)
				}
			}()
		}
		close(start)
		wg.Wait()
	}

	wave()
	if st := eng.CacheStats(); st.Computations != 1 {
		t.Fatalf("computations after wave 1 = %d; want exactly 1 (coalescing)", st.Computations)
	}

	wave()
	st := eng.CacheStats()
	if st.Computations != 1 {
		t.Fatalf("computations after wave 2 = %d; want still 1 (cache)", st.Computations)
	}
	if st.Hits == 0 || st.HitRate() <= 0 {
		t.Fatalf("hit rate = %v (hits %d); want > 0 on the second wave", st.HitRate(), st.Hits)
	}

	// The /stats endpoint must report the same picture.
	resp, err := client.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	stats := decode[StatsResponse](t, data)
	if stats.Cache.Computations != 1 || stats.Cache.HitRate <= 0 {
		t.Fatalf("/stats cache = %+v; want computations 1, hit_rate > 0", stats.Cache)
	}
	if stats.Requests.Expand != 64 {
		t.Fatalf("/stats expand count = %d; want 64", stats.Requests.Expand)
	}
	if stats.Docs != 8 || stats.UptimeSeconds < 0 {
		t.Fatalf("/stats = %+v", stats)
	}
}

// gateEngine blocks expansion until released, so tests can hold a worker
// slot. It overrides ExpandTraced because that is the method the server
// dispatches to.
type gateEngine struct {
	*qec.Engine
	entered chan struct{}
	release chan struct{}
}

func (g *gateEngine) ExpandTraced(ctx context.Context, raw string, opts qec.ExpandOptions, tr *obs.Trace) (*qec.Expansion, error) {
	g.entered <- struct{}{}
	<-g.release
	return g.Engine.ExpandTraced(ctx, raw, opts, tr)
}

func TestWorkerPoolSaturationAndTimeout(t *testing.T) {
	gate := &gateEngine{
		Engine:  ambiguousEngine(t),
		entered: make(chan struct{}, 4),
		release: make(chan struct{}),
	}
	srv := New(gate, Options{MaxConcurrent: 1, RequestTimeout: 200 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Request A grabs the only worker and blocks inside Expand.
	aDone := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, client, ts.URL+"/expand", ExpandRequest{Query: "apple"})
		aDone <- resp.StatusCode
	}()
	<-gate.entered

	// Request B cannot get a worker before its deadline → 503, carrying a
	// Retry-After derived from the queue drain rate so well-behaved clients
	// back off instead of hammering a saturated pool.
	resp, data := postJSON(t, client, ts.URL+"/expand", ExpandRequest{Query: "apple"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated status = %d, body %s; want 503", resp.StatusCode, data)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 || ra > 30 {
		t.Fatalf("saturated Retry-After = %q, want an integer in [1,30]", resp.Header.Get("Retry-After"))
	}

	// A's own deadline has passed while gated → 504.
	if code := <-aDone; code != http.StatusGatewayTimeout {
		t.Fatalf("gated request status = %d; want 504", code)
	}
	close(gate.release) // let the background computation finish and free the slot

	// The pool recovers: a fresh request succeeds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, data = postJSON(t, client, ts.URL+"/expand", ExpandRequest{Query: "apple"})
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool did not recover: status = %d, body %s", resp.StatusCode, data)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Counters recorded the rejection and the timeout.
	resp, err := client.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	stats := decode[StatsResponse](t, body)
	if stats.Requests.Rejected != 1 || stats.Requests.Timeouts != 1 {
		t.Fatalf("rejected/timeouts = %d/%d; want 1/1", stats.Requests.Rejected, stats.Requests.Timeouts)
	}
	if stats.Requests.Errors < 2 {
		t.Fatalf("errors = %d; want >= 2", stats.Requests.Errors)
	}
}

func TestClientDisconnectNotCountedAsTimeout(t *testing.T) {
	gate := &gateEngine{
		Engine:  ambiguousEngine(t),
		entered: make(chan struct{}, 4),
		release: make(chan struct{}),
	}
	srv := New(gate, Options{MaxConcurrent: 1, RequestTimeout: 10 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/expand",
		strings.NewReader(`{"query": "apple"}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := ts.Client().Do(req)
		errc <- err
	}()
	<-gate.entered // the expansion is in flight
	cancel()       // the client walks away
	if err := <-errc; err == nil {
		t.Fatal("client.Do should fail once its context is canceled")
	}

	// The handler observes the disconnect asynchronously. Keep the gate
	// held while waiting: with the expansion still blocked, the only event
	// that can wake the handler is the connection-close cancellation, so
	// the wait cannot race against a fast completion.
	deadline := time.Now().Add(5 * time.Second)
	for srv.canceled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("canceled counter never incremented")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate.release) // let the background expansion finish
	if n := srv.timeouts.Load(); n != 0 {
		t.Fatalf("timeouts = %d; client disconnect must not count as a timeout", n)
	}
	if n := srv.rejects.Load(); n != 0 {
		t.Fatalf("rejected = %d; client disconnect must not count as saturation", n)
	}
}

func TestGracefulShutdown(t *testing.T) {
	srv := New(ambiguousEngine(t), Options{ShutdownTimeout: time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	// The server answers while running...
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d; want 200", resp.StatusCode)
	}

	// ...and drains cleanly on cancel.
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v; want nil after graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
	if _, err := http.Get("http://" + ln.Addr().String() + "/healthz"); err == nil {
		t.Fatal("server should refuse connections after shutdown")
	}
}

func TestBodyLimit(t *testing.T) {
	ts := httptest.NewServer(New(ambiguousEngine(t), Options{MaxBodyBytes: 64}).Handler())
	defer ts.Close()
	big := fmt.Sprintf(`{"query": %q}`, strings.Repeat("apple ", 100))
	resp, err := ts.Client().Post(ts.URL+"/expand", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d; want 413", resp.StatusCode)
	}
}

// TestExpandQualityWire drives the quality field end to end: valid modes
// round-trip, unknown ones 400, and the server-level default applies only
// when the request leaves the field empty.
func TestExpandQualityWire(t *testing.T) {
	ts := httptest.NewServer(New(ambiguousEngine(t), Options{}).Handler())
	defer ts.Close()
	for _, quality := range []string{"", "exact", "serving"} {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/expand",
			ExpandRequest{Query: "apple", K: 2, Quality: quality})
		if resp.StatusCode != 200 {
			t.Fatalf("quality %q: status %d, body %s", quality, resp.StatusCode, data)
		}
		er := decode[ExpandResponse](t, data)
		if er.Score <= 0 {
			t.Fatalf("quality %q: score %v", quality, er.Score)
		}
	}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/expand",
		ExpandRequest{Query: "apple", Quality: "warp"})
	if resp.StatusCode != 400 {
		t.Fatalf("unknown quality: status %d, body %s", resp.StatusCode, data)
	}

	// A serving-default server still honours explicit per-request "exact".
	def := httptest.NewServer(New(ambiguousEngine(t),
		Options{DefaultQuality: qec.QualityServing}).Handler())
	defer def.Close()
	for _, quality := range []string{"", "exact"} {
		resp, data := postJSON(t, def.Client(), def.URL+"/expand",
			ExpandRequest{Query: "apple", K: 2, Quality: quality})
		if resp.StatusCode != 200 {
			t.Fatalf("default-serving, quality %q: status %d, body %s", quality, resp.StatusCode, data)
		}
	}
}

// TestExpandRequestOptionsQuality pins the wire→ExpandOptions mapping of the
// quality field, including the server-default fallback.
func TestExpandRequestOptionsQuality(t *testing.T) {
	cases := []struct {
		wire string
		def  qec.Quality
		want qec.Quality
		ok   bool
	}{
		{"", qec.QualityExact, qec.QualityExact, true},
		{"", qec.QualityServing, qec.QualityServing, true},
		{"exact", qec.QualityServing, qec.QualityExact, true},
		{"Serving", qec.QualityExact, qec.QualityServing, true},
		{"bogus", qec.QualityExact, qec.QualityExact, false},
		{"minimal", qec.QualityExact, qec.QualityExact, false}, // ladder only
		{"", qec.Quality(5), qec.QualityExact, false},          // undefined default
		{"exact", qec.Quality(5), qec.QualityExact, true},      // explicit level wins
	}
	for _, tc := range cases {
		opts, err := (&ExpandRequest{Query: "q", Quality: tc.wire}).Options(tc.def)
		if (err == nil) != tc.ok {
			t.Fatalf("quality %q: err = %v, want ok=%v", tc.wire, err, tc.ok)
		}
		if err == nil && opts.Quality != tc.want {
			t.Fatalf("quality %q (default %v): got %v, want %v", tc.wire, tc.def, opts.Quality, tc.want)
		}
	}
}
