package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	qec "repro"
	"repro/internal/obs"
)

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{16}$`)

// TestMetricsExposition scrapes /metrics from a live test server after mixed
// traffic and validates the page structurally (the same check CI runs):
// well-formed HELP/TYPE headers, parseable samples, cumulative histogram
// buckets with +Inf == _count.
func TestMetricsExposition(t *testing.T) {
	eng := ambiguousEngine(t, qec.WithExpansionCache(16))
	ts := httptest.NewServer(New(eng, Options{}).Handler())
	defer ts.Close()
	client := ts.Client()

	postJSON(t, client, ts.URL+"/search", SearchRequest{Query: "apple"})
	for _, quality := range []string{"exact", "serving"} {
		postJSON(t, client, ts.URL+"/expand", ExpandRequest{Query: "apple", K: 2, Quality: quality})
	}
	// Second exact request: a cache hit, so hit counters move too.
	postJSON(t, client, ts.URL+"/expand", ExpandRequest{Query: "apple", K: 2, Quality: "exact"})
	// One request per alternative paradigm, so the per-method histograms
	// carry every backend family.
	for _, method := range []string{"vector", "lexical", "orthogonal"} {
		postJSON(t, client, ts.URL+"/expand", ExpandRequest{Query: "apple", K: 2, Method: method})
	}

	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if err := obs.ValidatePromText(text); err != nil {
		t.Fatalf("malformed exposition: %v", err)
	}
	for _, want := range []string{
		"qec_http_requests_total",
		`qec_http_endpoint_requests_total{endpoint="expand"} 6`,
		"qec_cache_hits_total 1",
		"qec_workers_capacity",
		`qec_http_request_duration_seconds_bucket{endpoint="search",le="+Inf"} 1`,
		`qec_expand_request_duration_seconds_count{quality="serving"} 1`,
		`qec_expand_pipeline_duration_seconds_count{quality="exact"} 4`,
		`qec_expand_method_duration_seconds_count{method="iskr"} 2`,
		`qec_expand_method_duration_seconds_count{method="vector"} 1`,
		`qec_expand_method_duration_seconds_count{method="lexical"} 1`,
		`qec_expand_method_duration_seconds_count{method="orthogonal"} 1`,
		`qec_expand_method_duration_seconds_count{method="custom"} 0`,
		`qec_stage_duration_seconds_bucket{stage="cluster",`,
		"qec_kmeans_restarts_total",
		"qec_core_fans_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestColdExpandCountsEveryFan checks that the fan telemetry covers the
// whole pipeline, k-means included: one cold /expand with k = 2 raises
// qec_core_fans_total by at least two — the k-means restart fan plus the
// per-cluster solve fan (the per-cluster problems are built serially).
func TestColdExpandCountsEveryFan(t *testing.T) {
	ts := httptest.NewServer(New(ambiguousEngine(t), Options{}).Handler())
	defer ts.Close()
	fansRe := regexp.MustCompile(`(?m)^qec_core_fans_total (\d+)$`)
	fans := func() uint64 {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		m := fansRe.FindSubmatch(data)
		if m == nil {
			t.Fatal("exposition has no qec_core_fans_total sample")
		}
		n, err := strconv.ParseUint(string(m[1]), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	before := fans()
	if resp, data := postJSON(t, ts.Client(), ts.URL+"/expand", ExpandRequest{Query: "apple", K: 2}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	if d := fans() - before; d < 2 {
		t.Fatalf("qec_core_fans_total rose by %d on a cold k=2 expansion, want >= 2", d)
	}
}

// TestExpandDebugAndTraceHeader checks the "debug": true contract: the inline
// breakdown matches the X-Trace-Id header, a computed request carries stage
// timings, and a repeat request reports the cache hit with no stages.
func TestExpandDebugAndTraceHeader(t *testing.T) {
	eng := ambiguousEngine(t, qec.WithExpansionCache(16))
	ts := httptest.NewServer(New(eng, Options{}).Handler())
	defer ts.Close()

	issue := func() (*http.Response, *ExpandResponse) {
		t.Helper()
		resp, data := postJSON(t, ts.Client(), ts.URL+"/expand",
			ExpandRequest{Query: "apple", K: 2, Debug: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, data)
		}
		var er ExpandResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Fatal(err)
		}
		return resp, &er
	}

	resp, er := issue()
	if er.Debug == nil {
		t.Fatal("debug requested but response has no debug section")
	}
	if !traceIDRe.MatchString(er.Debug.TraceID) {
		t.Fatalf("trace_id %q is not 16 hex digits", er.Debug.TraceID)
	}
	if hdr := resp.Header.Get("X-Trace-Id"); hdr != er.Debug.TraceID {
		t.Fatalf("X-Trace-Id %q != debug trace_id %q", hdr, er.Debug.TraceID)
	}
	if er.Debug.Cache != "computed" {
		t.Fatalf("first request cache = %q; want computed", er.Debug.Cache)
	}
	if len(er.Debug.Stages) == 0 {
		t.Fatal("computed request should carry stage timings")
	}
	if er.Debug.KMeans.Restarts == 0 {
		t.Fatal("computed request should report k-means restarts")
	}

	resp2, er2 := issue()
	if er2.Debug.Cache != "hit" {
		t.Fatalf("repeat request cache = %q; want hit", er2.Debug.Cache)
	}
	if len(er2.Debug.Stages) != 0 {
		t.Fatalf("cache hit should carry no stage timings, got %v", er2.Debug.Stages)
	}
	if resp2.Header.Get("X-Trace-Id") == resp.Header.Get("X-Trace-Id") {
		t.Fatal("trace IDs should be unique per request")
	}

	// Without "debug" the response must not carry the section.
	respNo, data := postJSON(t, ts.Client(), ts.URL+"/expand", ExpandRequest{Query: "apple", K: 2})
	if respNo.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", respNo.StatusCode)
	}
	if bytes.Contains(data, []byte(`"debug"`)) {
		t.Fatalf("undebugged response leaked a debug section: %s", data)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output.
type syncBuffer struct {
	mu  chan struct{}
	buf bytes.Buffer
}

func newSyncBuffer() *syncBuffer {
	sb := &syncBuffer{mu: make(chan struct{}, 1)}
	sb.mu <- struct{}{}
	return sb
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	<-b.mu
	defer func() { b.mu <- struct{}{} }()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	<-b.mu
	defer func() { b.mu <- struct{}{} }()
	return b.buf.String()
}

// TestAccessAndSlowQueryLog drives requests through a server with both logs
// configured and checks every line is valid JSON with the contract fields,
// and that slow lines (threshold 0s exceeded by everything) carry the stage
// breakdown.
func TestAccessAndSlowQueryLog(t *testing.T) {
	access, slow := newSyncBuffer(), newSyncBuffer()
	eng := ambiguousEngine(t, qec.WithExpansionCache(16))
	ts := httptest.NewServer(New(eng, Options{
		AccessLog: access,
		SlowQuery: time.Nanosecond,
		SlowLog:   slow,
	}).Handler())
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/search", SearchRequest{Query: "apple"})
	postJSON(t, ts.Client(), ts.URL+"/expand", ExpandRequest{Query: "apple", K: 2})
	postJSON(t, ts.Client(), ts.URL+"/expand", ExpandRequest{Query: "apple", K: 2}) // cache hit

	type logLine struct {
		TS       string             `json:"ts"`
		Trace    string             `json:"trace"`
		Endpoint string             `json:"endpoint"`
		Query    string             `json:"query"`
		Quality  string             `json:"quality"`
		Status   int                `json:"status"`
		TookMS   *float64           `json:"took_ms"`
		Cache    string             `json:"cache"`
		Slow     bool               `json:"slow"`
		Stages   map[string]float64 `json:"stages"`
		KMeans   *KMeansDebug       `json:"kmeans"`
	}
	parse := func(text string) []logLine {
		t.Helper()
		var lines []logLine
		for _, ln := range strings.Split(strings.TrimSpace(text), "\n") {
			if ln == "" {
				continue
			}
			var ll logLine
			if err := json.Unmarshal([]byte(ln), &ll); err != nil {
				t.Fatalf("log line is not valid JSON: %v\n%s", err, ln)
			}
			lines = append(lines, ll)
		}
		return lines
	}

	accessLines := parse(access.String())
	if len(accessLines) != 3 {
		t.Fatalf("access log has %d lines; want 3", len(accessLines))
	}
	for _, ll := range accessLines {
		if !traceIDRe.MatchString(ll.Trace) {
			t.Fatalf("bad trace id %q in %+v", ll.Trace, ll)
		}
		if ll.Status != http.StatusOK || ll.TookMS == nil || ll.Query != "apple" {
			t.Fatalf("incomplete access line: %+v", ll)
		}
		if _, err := time.Parse(time.RFC3339Nano, ll.TS); err != nil {
			t.Fatalf("bad timestamp %q: %v", ll.TS, err)
		}
	}
	if accessLines[0].Endpoint != "search" || accessLines[1].Endpoint != "expand" {
		t.Fatalf("unexpected endpoints: %+v", accessLines)
	}
	if accessLines[1].Cache != "computed" || accessLines[2].Cache != "hit" {
		t.Fatalf("cache dispositions = %q, %q; want computed, hit",
			accessLines[1].Cache, accessLines[2].Cache)
	}

	// Dedicated slow log: every line marked slow, expands carry stages.
	slowLines := parse(slow.String())
	if len(slowLines) != 3 {
		t.Fatalf("slow log has %d lines; want 3", len(slowLines))
	}
	for _, ll := range slowLines {
		if !ll.Slow {
			t.Fatalf("slow line not marked slow: %+v", ll)
		}
	}
	computed := slowLines[1]
	if len(computed.Stages) == 0 || computed.KMeans == nil || computed.KMeans.Restarts == 0 {
		t.Fatalf("computed slow line missing stage breakdown: %+v", computed)
	}
	if _, ok := computed.Stages["cluster"]; !ok {
		t.Fatalf("slow breakdown missing cluster stage: %+v", computed.Stages)
	}
}

// TestStatsLatencyAndWorkers checks the extended /stats payload: latency
// quantiles per endpoint and per quality tier, worker pool occupancy, and the
// k-means totals.
func TestStatsLatencyAndWorkers(t *testing.T) {
	eng := ambiguousEngine(t, qec.WithExpansionCache(16))
	ts := httptest.NewServer(New(eng, Options{}).Handler())
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/search", SearchRequest{Query: "apple"})
	postJSON(t, ts.Client(), ts.URL+"/expand", ExpandRequest{Query: "apple", K: 2})
	postJSON(t, ts.Client(), ts.URL+"/expand", ExpandRequest{Query: "apple", K: 2, Quality: "serving"})

	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Latency.Search.Count != 1 || stats.Latency.Expand.Count != 2 {
		t.Fatalf("latency counts = %+v", stats.Latency)
	}
	if stats.Latency.Expand.P99MS < stats.Latency.Expand.P50MS {
		t.Fatalf("p99 < p50: %+v", stats.Latency.Expand)
	}
	if q := stats.Latency.Quality; q["exact"].Count != 1 || q["serving"].Count != 1 {
		t.Fatalf("per-quality counts = %+v", q)
	}
	if stats.Workers.Capacity <= 0 || stats.Workers.InFlight != 0 || stats.Workers.Queued != 0 {
		t.Fatalf("workers = %+v", stats.Workers)
	}
	if stats.KMeans.Restarts == 0 || stats.KMeans.Iterations == 0 {
		t.Fatalf("kmeans totals = %+v", stats.KMeans)
	}
	// Both pipeline runs used the default method; methods never run are
	// omitted from the per-method split.
	if m := stats.Latency.Method; m["iskr"].Count != 2 || len(m) != 1 {
		t.Fatalf("per-method latency = %+v; want iskr:2 only", m)
	}
}
