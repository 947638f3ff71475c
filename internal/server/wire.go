package server

import (
	"fmt"
	"time"

	qec "repro"
	"repro/internal/obs"
)

// SearchRequest is the body of POST /search.
type SearchRequest struct {
	// Query is the raw keyword query (required).
	Query string `json:"query"`
	// TopK limits the number of returned hits; 0 returns all.
	TopK int `json:"top_k,omitempty"`
}

// SearchHit is one ranked result.
type SearchHit struct {
	ID    int     `json:"id"`
	Title string  `json:"title,omitempty"`
	Score float64 `json:"score"`
}

// SearchResponse is the body of a successful POST /search.
type SearchResponse struct {
	Count  int         `json:"count"`
	Hits   []SearchHit `json:"hits"`
	TookMS float64     `json:"took_ms"`
}

// ExpandRequest is the body of POST /expand. It wire-maps every field of
// qec.ExpandOptions.
type ExpandRequest struct {
	// Query is the raw keyword query (required).
	Query string `json:"query"`
	// K is the maximum number of clusters / expanded queries (0 = 3).
	K int `json:"k,omitempty"`
	// TopK considers only the top-ranked results (0 = all).
	TopK int `json:"top_k,omitempty"`
	// Method selects the expansion backend: "iskr" (default), "pebc",
	// "deltaf", "or", "vector", "lexical" or "orthogonal" (aliases accepted
	// — see qec.Methods). Unknown names are rejected with a 400 enumerating
	// the valid methods.
	Method string `json:"method,omitempty"`
	// Unweighted disables rank-weighted precision/recall.
	Unweighted bool `json:"unweighted,omitempty"`
	// Interleave alternates expansion and re-clustering for up to this many
	// rounds (0 = off).
	Interleave int `json:"interleave,omitempty"`
	// Quality is "exact" (default) or "serving": the clustering
	// speed/accuracy trade. Empty inherits the server's -quality default.
	Quality string `json:"quality,omitempty"`
	// Debug asks for a per-stage timing breakdown in the response ("debug"
	// section): trace ID, cache disposition, stage spans and k-means restart
	// counts. Costs nothing when false.
	Debug bool `json:"debug,omitempty"`
	// Explain asks for the full decision trail in the response ("explain"
	// section): pruning counters, k-means restart fates, per-cluster
	// candidate pools with benefit/cost/value, picked keywords and what every
	// rejected alternative scored. Explain requests bypass the expansion
	// cache (the pipeline is deterministic, so the expansion itself is
	// bit-identical either way). Costs nothing when false.
	Explain bool `json:"explain,omitempty"`
}

// Options converts the wire request into qec.ExpandOptions. def is the
// server's default clustering quality, applied when the request leaves the
// field empty; an undefined level is an error.
func (r *ExpandRequest) Options(def qec.Quality) (qec.ExpandOptions, error) {
	method, err := qec.ParseMethod(r.Method)
	if err != nil {
		return qec.ExpandOptions{}, err
	}
	quality := def
	if r.Quality != "" {
		var ok bool
		if quality, ok = qec.ParseQuality(r.Quality); !ok {
			return qec.ExpandOptions{}, fmt.Errorf("unknown quality %q", r.Quality)
		}
	}
	if !quality.Valid() {
		return qec.ExpandOptions{}, fmt.Errorf("undefined quality level %d", int(quality))
	}
	return qec.ExpandOptions{
		K:          r.K,
		TopK:       r.TopK,
		Method:     method,
		Unweighted: r.Unweighted,
		Interleave: r.Interleave,
		Quality:    quality,
	}, nil
}

// ExpandedQuery is one expanded query of an ExpandResponse.
type ExpandedQuery struct {
	Terms     []string `json:"terms"`
	Cluster   int      `json:"cluster"`
	Precision float64  `json:"precision"`
	Recall    float64  `json:"recall"`
	F         float64  `json:"f"`
}

// ExpansionWire is the part of an ExpandResponse that is a function of the
// *qec.Expansion alone. The server encodes it once per expansion and, for
// expansions the engine caches, reuses those bytes on every later hit.
type ExpansionWire struct {
	Original []string        `json:"original"`
	Queries  []ExpandedQuery `json:"queries"`
	// Clusters holds the document IDs of each cluster, aligned with Queries.
	Clusters [][]int `json:"clusters"`
	// Score is the harmonic mean of the queries' F-measures (Eq. 1).
	Score float64 `json:"score"`
}

// ExpandResponse is the body of a successful POST /expand. The embedded
// ExpansionWire's fields come first on the wire, in its field order.
type ExpandResponse struct {
	ExpansionWire
	TookMS float64 `json:"took_ms"`
	// Degraded is the degradation-ladder tier the request was served at
	// (1 = serving quality, 2 = one k-means restart, 3 = cache only);
	// omitted at full quality or when degradation is disabled. The same
	// value rides in the X-Qec-Tier response header.
	Degraded int `json:"degraded,omitempty"`
	// Debug carries the per-stage timing breakdown when the request set
	// "debug": true; omitted otherwise.
	Debug *ExpandDebug `json:"debug,omitempty"`
	// Explain carries the full decision trail when the request set
	// "explain": true; omitted otherwise.
	Explain *qec.Explain `json:"explain,omitempty"`
}

// StageTiming is one pipeline stage's wall time within a traced expansion.
type StageTiming struct {
	Stage string  `json:"stage"`
	MS    float64 `json:"ms"`
}

// KMeansDebug reports the clustering driver's restart bookkeeping for one
// traced expansion.
type KMeansDebug struct {
	Restarts   int `json:"restarts"`
	Iterations int `json:"iterations"`
	Abandoned  int `json:"abandoned"`
}

// ExpandDebug is the "debug" section of an ExpandResponse: the same trace the
// server writes to its slow-query log, inline for the caller. Cache hits and
// coalesced waits carry no stage timings — the pipeline did not run for them.
type ExpandDebug struct {
	TraceID string        `json:"trace_id"`
	Cache   string        `json:"cache"`
	Stages  []StageTiming `json:"stages"`
	KMeans  KMeansDebug   `json:"kmeans"`
}

// newExpandDebug renders a request's record as its "debug" section.
func newExpandDebug(rec *obs.RequestRecord) *ExpandDebug {
	return &ExpandDebug{
		TraceID: obs.IDString(rec.TraceID),
		Cache:   rec.Cache.String(),
		Stages:  stageTimings(rec),
		KMeans: KMeansDebug{
			Restarts:   rec.KMeansRestarts,
			Iterations: rec.KMeansIterations,
			Abandoned:  rec.KMeansAbandoned,
		},
	}
}

// stageTimings lists the record's non-zero stage spans in pipeline order.
func stageTimings(rec *obs.RequestRecord) []StageTiming {
	out := make([]StageTiming, 0, obs.NumStages)
	for st := 0; st < obs.NumStages; st++ {
		if d := rec.Stages[st]; d > 0 {
			out = append(out, StageTiming{Stage: obs.Stage(st).String(), MS: float64(d.Microseconds()) / 1000})
		}
	}
	return out
}

// newExpansionWire converts a qec.Expansion to its wire form.
func newExpansionWire(exp *qec.Expansion) ExpansionWire {
	ew := ExpansionWire{
		Original: exp.Original,
		Queries:  make([]ExpandedQuery, 0, len(exp.Queries)),
		Clusters: make([][]int, 0, len(exp.Clusters)),
		Score:    exp.Score,
	}
	for _, q := range exp.Queries {
		ew.Queries = append(ew.Queries, ExpandedQuery{
			Terms:     q.Terms,
			Cluster:   q.Cluster,
			Precision: q.Precision,
			Recall:    q.Recall,
			F:         q.F,
		})
	}
	for _, cl := range exp.Clusters {
		ids := make([]int, len(cl))
		for i, id := range cl {
			ids[i] = int(id)
		}
		ew.Clusters = append(ew.Clusters, ids)
	}
	return ew
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status string `json:"status"`
	Docs   int    `json:"docs"`
}

// RequestStats are the server's request counters.
type RequestStats struct {
	Total    int64 `json:"total"`
	Search   int64 `json:"search"`
	Expand   int64 `json:"expand"`
	Errors   int64 `json:"errors"`
	Timeouts int64 `json:"timeouts"`
	// Rejected counts requests turned away because the expansion worker
	// pool stayed saturated for the whole request deadline.
	Rejected int64 `json:"rejected"`
	// Canceled counts requests whose client disconnected before a
	// response; these are deliberately kept out of Timeouts/Rejected.
	Canceled int64 `json:"canceled"`
}

// CacheStats is the wire form of qec.CacheStats.
type CacheStats struct {
	Hits         int64   `json:"hits"`
	Misses       int64   `json:"misses"`
	Evictions    int64   `json:"evictions"`
	Entries      int     `json:"entries"`
	Capacity     int     `json:"capacity"`
	HitRate      float64 `json:"hit_rate"`
	Computations int64   `json:"computations"`
	Coalesced    int64   `json:"coalesced"`
}

// HistogramSummary condenses a latency histogram to the quantiles operators
// watch. Quantiles are estimated by linear interpolation within the log-scale
// buckets, so they are approximations with bucket-width resolution.
type HistogramSummary struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
}

func summarize(s obs.HistSnapshot) HistogramSummary {
	return HistogramSummary{
		Count:  s.Count,
		MeanMS: float64(s.Mean().Microseconds()) / 1000,
		P50MS:  float64(s.Quantile(0.50).Microseconds()) / 1000,
		P90MS:  float64(s.Quantile(0.90).Microseconds()) / 1000,
		P99MS:  float64(s.Quantile(0.99).Microseconds()) / 1000,
	}
}

// LatencyStats reports user-visible request latency per endpoint, expand
// latency split by clustering quality tier, and uncached pipeline-run
// latency split by expansion method (cache hits and coalesced waits are
// excluded from the method split — they never ran a backend).
type LatencyStats struct {
	Search  HistogramSummary            `json:"search"`
	Expand  HistogramSummary            `json:"expand"`
	Quality map[string]HistogramSummary `json:"quality"`
	Method  map[string]HistogramSummary `json:"method"`
}

// KMeansStats totals the clustering driver's restart bookkeeping across all
// expansion runs.
type KMeansStats struct {
	Restarts   int64 `json:"restarts"`
	Iterations int64 `json:"iterations"`
	Abandoned  int64 `json:"abandoned"`
}

// WorkerStats reports the expansion worker pool's instantaneous occupancy.
type WorkerStats struct {
	Capacity int   `json:"capacity"`
	InFlight int64 `json:"in_flight"`
	Queued   int64 `json:"queued"`
}

// RateStats reports windowed rates derived from the server's periodic
// counter snapshots — the derivative signals a point-in-time counter scrape
// cannot give. Windows shorter than the server's uptime fall back to "since
// start".
type RateStats struct {
	// QPS1M / QPS5M are requests per second over the trailing 1/5 minutes.
	QPS1M float64 `json:"qps_1m"`
	QPS5M float64 `json:"qps_5m"`
	// ErrorRate1M / ErrorRate5M are non-2xx responses per request over the
	// same windows.
	ErrorRate1M float64 `json:"error_rate_1m"`
	ErrorRate5M float64 `json:"error_rate_5m"`
	// AbandonRate1M is k-means restarts abandoned per restart launched over
	// the last minute (serving-quality early abandonment).
	AbandonRate1M float64 `json:"abandon_rate_1m"`
	// QueueMean1M / QueueMax1M summarize the worker-queue depth across the
	// last minute's samples.
	QueueMean1M float64 `json:"queue_mean_1m"`
	QueueMax1M  int64   `json:"queue_max_1m"`
}

// DegradeStats reports the degradation controller's state: the current
// ladder tier, how often it moved, how many requests were shed, and request
// latency split by the tier requests were served at.
type DegradeStats struct {
	// Tier is the current rung ("T0".."T4"); MaxTier the configured clamp.
	Tier    string `json:"tier"`
	MaxTier string `json:"max_tier"`
	// Pressure is the last computed load scalar the tier derives from.
	Pressure float64 `json:"pressure"`
	// Steps counts controller sampling steps; Transitions tier changes.
	Steps       int64 `json:"steps"`
	Transitions int64 `json:"transitions"`
	// Shed counts requests rejected at tier T4.
	Shed int64 `json:"shed"`
	// Latency summarizes expand latency per serving tier (tiers with no
	// requests yet are omitted).
	Latency map[string]HistogramSummary `json:"latency"`
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Docs          int          `json:"docs"`
	Requests      RequestStats `json:"requests"`
	Cache         CacheStats   `json:"cache"`
	Workers       WorkerStats  `json:"workers"`
	Latency       LatencyStats `json:"latency"`
	KMeans        KMeansStats  `json:"kmeans"`
	Rates         RateStats    `json:"rates"`
	// Degrade reports the degradation controller; omitted when disabled.
	Degrade *DegradeStats `json:"degrade,omitempty"`
}

// FlightRecordWire is one retained request record of GET /debug/requests.
type FlightRecordWire struct {
	Trace    string    `json:"trace"`
	Endpoint string    `json:"endpoint"`
	Query    string    `json:"query"`
	Method   string    `json:"method,omitempty"`
	Quality  string    `json:"quality,omitempty"`
	Status   int       `json:"status"`
	Outcome  string    `json:"outcome"`
	Cache    string    `json:"cache,omitempty"`
	Start    time.Time `json:"start"`
	TookMS   float64   `json:"took_ms"`
	// Notable marks slow/error/aborted records, which are exempt from
	// sampling and fast-traffic eviction.
	Notable bool `json:"notable,omitempty"`
	// Tier is the degradation-ladder rung the request was served or shed at
	// (omitted at T0 and when degradation is disabled).
	Tier int `json:"tier,omitempty"`
	// Stages is the per-stage pipeline breakdown (absent for /search and
	// cache hits); KMeans the clustering bookkeeping when the pipeline ran.
	Stages []StageTiming `json:"stages,omitempty"`
	KMeans *KMeansDebug  `json:"kmeans,omitempty"`
}

// ActiveRequestWire is one in-flight request of GET /debug/requests.
type ActiveRequestWire struct {
	Trace    string  `json:"trace"`
	Endpoint string  `json:"endpoint"`
	Query    string  `json:"query"`
	AgeMS    float64 `json:"age_ms"`
}

// SamplingStats reports the flight recorder's admission bookkeeping.
type SamplingStats struct {
	// Recorded counts records admitted to the main ring; Dropped counts
	// plain records shed by adaptive sampling; Shift is the current
	// decimation (1 in 2^shift plain records admitted).
	Recorded uint64 `json:"recorded"`
	Dropped  uint64 `json:"dropped"`
	Shift    int    `json:"shift"`
}

// DebugRequestsResponse is the body of GET /debug/requests.
type DebugRequestsResponse struct {
	// Count is len(Records) after filtering; Records are newest first.
	Count    int                 `json:"count"`
	Records  []FlightRecordWire  `json:"records"`
	Active   []ActiveRequestWire `json:"active,omitempty"`
	Sampling SamplingStats       `json:"sampling"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
