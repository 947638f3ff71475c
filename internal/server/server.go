// Package server exposes a qec.Engine as a JSON HTTP API — the serving
// subsystem that turns the paper's one-shot pipeline into an online query
// expansion service.
//
// Endpoints:
//
//	POST /search   {"query": "...", "top_k": N}        → ranked hits
//	POST /expand   {"query": "...", "k": N, ...}       → expanded queries
//	GET  /healthz                                       → liveness + doc count
//	GET  /stats                                         → request + cache counters + latency quantiles
//	GET  /metrics                                       → Prometheus text exposition
//
// The server applies a per-request deadline, bounds concurrent expansions
// with a worker pool (requests that cannot get a worker before their deadline
// are rejected with 503), and shuts down gracefully when its context is
// cancelled (in-flight requests drain, new ones get 503 + Retry-After).
// Expansion results are cached/coalesced by the engine when it was
// constructed with qec.WithExpansionCache.
//
// With Options.Degrade the server consults an adaptive degradation
// controller (internal/degrade) at admission: under load it raises the
// clustering quality floor to serving, then to one k-means restart,
// falls back to cache-only answers, and only as the last rung sheds with
// 503 + Retry-After. The tier a request was served at is stamped into the
// response ("degraded" field and X-Qec-Tier header), the access log, the
// flight recorder, /stats and /metrics — docs/DEGRADATION.md has the
// operator guide.
//
// Every search/expand request gets a trace ID, returned in the X-Trace-Id
// response header and stamped on the optional JSON-lines access log
// (Options.AccessLog) and slow-query log (Options.SlowQuery/SlowLog).
// Requests with "debug": true receive the per-stage timing breakdown inline.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	qec "repro"
	"repro/internal/cache"
	"repro/internal/degrade"
	"repro/internal/obs"
)

// Engine is the part of *qec.Engine the server needs. It is an interface so
// tests can inject slow or failing engines; *qec.Engine satisfies it.
type Engine interface {
	Search(raw string, topK int) []qec.Result
	ExpandTraced(ctx context.Context, raw string, opts qec.ExpandOptions, tr *obs.Trace) (*qec.Expansion, error)
	ExpandExplained(ctx context.Context, raw string, opts qec.ExpandOptions, tr *obs.Trace) (*qec.Expansion, *qec.Explain, error)
	// ExpandCached answers from the expansion cache without running the
	// pipeline (false on miss or when the engine has no cache) — the
	// degradation ladder's cache-only read path.
	ExpandCached(raw string, opts qec.ExpandOptions) (*qec.Expansion, bool)
	Len() int
	CacheStats() qec.CacheStats
}

// Options configures a Server. The zero value gets sensible defaults.
type Options struct {
	// RequestTimeout is the per-request deadline, covering both the wait
	// for a worker slot and the computation itself. Default 10s.
	RequestTimeout time.Duration
	// MaxConcurrent bounds concurrently executing expansions (the worker
	// pool size). Search requests are not pooled — they are index lookups,
	// orders of magnitude cheaper than clustering + ISKR.
	// Default 2×GOMAXPROCS.
	MaxConcurrent int
	// ShutdownTimeout bounds graceful drain in Run. Default 5s.
	ShutdownTimeout time.Duration
	// MaxBodyBytes bounds request body size. Default 1MiB.
	MaxBodyBytes int64
	// DefaultQuality is the clustering quality mode applied to expand
	// requests that leave "quality" unset. The zero value is
	// qec.QualityExact; operators trade accuracy for latency fleet-wide
	// with qec-serve -quality serving, while individual requests can still
	// pin either mode.
	DefaultQuality qec.Quality
	// AccessLog, when non-nil, receives one JSON line per served
	// search/expand request: timestamp, trace ID, endpoint, query, method,
	// quality, status, latency and cache disposition.
	AccessLog io.Writer
	// SlowQuery, when positive, marks requests at or above this latency as
	// slow: their log line gains the full per-stage timing breakdown.
	SlowQuery time.Duration
	// SlowLog, when non-nil, receives the slow-query lines. When nil and
	// AccessLog is set, slow breakdowns ride inline on the access line.
	SlowLog io.Writer
	// FlightCapacity sizes the flight recorder's main ring of completed
	// request records (GET /debug/requests). Default 256; the notable ring
	// (slow/error/aborted requests, exempt from sampling and fast-traffic
	// eviction) holds a quarter of it.
	FlightCapacity int
	// Degrade enables the adaptive degradation controller: expand requests
	// are admitted through the internal/degrade tier ladder, shedding
	// quality (serving, one k-means restart, cache-only) before
	// shedding requests. Off by default.
	Degrade bool
	// DegradeMaxTier clamps the ladder (1..4; see degrade.Tier). Values
	// outside that range mean 4 — shedding allowed. 3 forbids shedding
	// entirely: the server serves through any saturation, degraded.
	DegradeMaxTier int
}

func (o Options) withDefaults() Options {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if o.ShutdownTimeout <= 0 {
		o.ShutdownTimeout = 5 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.FlightCapacity <= 0 {
		o.FlightCapacity = 256
	}
	return o
}

// Server serves an Engine over HTTP. Construct with New; all methods are
// safe for concurrent use.
type Server struct {
	eng     Engine
	opts    Options
	workers chan struct{}
	mux     *http.ServeMux
	started time.Time

	total, searches, expands              atomic.Int64
	errcount, timeouts, rejects, canceled atomic.Int64

	// inFlight and queued expose the worker pool's occupancy; searchHist and
	// expandHist (indexed by quality level) record user-visible request
	// latency, queueing and cache hits included.
	inFlight   obs.Gauge
	queued     obs.Gauge
	searchHist obs.Histogram
	expandHist [qec.NumQualities]obs.Histogram

	// flight retains completed request records for /debug/requests; active
	// tracks in-flight requests; rates derives windowed QPS/error-rate from
	// periodic counter snapshots (ticked lazily by reads and by Serve's
	// background ticker).
	flight       *obs.FlightRecorder
	active       *obs.ActiveSet
	rates        *obs.RateWindow
	lastRateTick atomic.Int64 // UnixNano of the newest rate sample

	// ctrl is the degradation controller (nil unless Options.Degrade). It is
	// stepped on the rate-tick cadence with the same sampled signals the rate
	// window stores; tierHist records expand latency per serving tier; sheds
	// counts T4 rejections; expandsDone counts completed expansions (the
	// queue drain rate Retry-After is derived from).
	ctrl        *degrade.Controller
	tierHist    [degrade.NumTiers]obs.Histogram
	sheds       atomic.Int64
	expandsDone atomic.Int64

	// draining flips when graceful shutdown begins: in-flight requests
	// finish, new ones get 503 + Retry-After.
	draining atomic.Bool

	accessLog *jsonLogger
	slowLog   *jsonLogger

	// wireMemo holds the encoded ExpansionWire fields of recently written
	// expansions, keyed by pointer identity: the engine's cache hands every
	// hit the same immutable *qec.Expansion, so a hit writes stored bytes
	// instead of encoding again. The key pins its expansion, so an address
	// cannot be reused while its entry lives. It is sized like the engine's
	// cache and nil when the engine has none, where no pointer recurs.
	wireMemo *cache.Cache[*qec.Expansion, []byte]
}

// statusClientClosedRequest is nginx's non-standard 499, the conventional
// status for "the client disconnected before we could respond"; it is only
// ever written to an already-dead socket, but it keeps logs unambiguous.
const statusClientClosedRequest = 499

// New returns a Server for eng. The engine must already hold its corpus;
// when it also exposes Build (as *qec.Engine does), New builds the index
// eagerly so the first request does not pay the indexing cost.
func New(eng Engine, opts Options) *Server {
	if b, ok := eng.(interface{ Build() }); ok {
		b.Build()
	}
	s := &Server{
		eng:     eng,
		opts:    opts.withDefaults(),
		started: time.Now(),
	}
	s.workers = make(chan struct{}, s.opts.MaxConcurrent)
	s.accessLog = newJSONLogger(s.opts.AccessLog)
	s.slowLog = newJSONLogger(s.opts.SlowLog)
	s.flight = obs.NewFlightRecorder(s.opts.FlightCapacity, (s.opts.FlightCapacity+3)/4)
	s.active = obs.NewActiveSet(2 * s.opts.MaxConcurrent)
	s.rates = obs.NewRateWindow(rateWindowSamples, numRateCounters)
	s.lastRateTick.Store(time.Now().UnixNano())
	if n := eng.CacheStats().Capacity; n > 0 {
		s.wireMemo = cache.New[*qec.Expansion, []byte](n, cache.PointerHash[qec.Expansion])
	}
	if s.opts.Degrade {
		s.ctrl = degrade.New(degrade.Config{
			MaxTier: degrade.Tier(s.opts.DegradeMaxTier),
			// A request whose remaining deadline cannot fit a typical full
			// pipeline run is individually escalated to a cheaper tier.
			TightDeadline: s.opts.RequestTimeout / 4,
		})
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/search", s.handleSearch)
	s.mux.HandleFunc("/expand", s.handleExpand)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("/debug/requests/", s.handleDebugRequest)
	return s
}

// Handler returns the server's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Run listens on addr and serves until ctx is cancelled, then drains
// in-flight requests for up to Options.ShutdownTimeout. It returns nil after
// a clean shutdown.
func (s *Server) Run(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve is Run with a caller-provided listener (which Serve takes ownership
// of), so callers and tests can bind port 0 and discover the address.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	// Background rate sampling, so windowed QPS stays fresh even when
	// nothing scrapes /stats (reads also tick lazily — see maybeTickRates).
	tickerDone := make(chan struct{})
	defer close(tickerDone)
	go func() {
		t := time.NewTicker(rateTickInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.maybeTickRates()
			case <-tickerDone:
				return
			}
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Draining: requests already executing run to completion (bounded by
		// ShutdownTimeout); new requests — including ones arriving on live
		// keep-alive connections Shutdown has not closed yet — are refused
		// with 503 + Retry-After instead of queueing behind a closing server.
		s.draining.Store(true)
		drain, cancel := context.WithTimeout(context.Background(), s.opts.ShutdownTimeout)
		defer cancel()
		return srv.Shutdown(drain)
	}
}

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// rejectDraining answers one request arriving after shutdown began. Returns
// true when the request was rejected.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	s.rejects.Add(1)
	s.writeRetryError(w, http.StatusServiceUnavailable, "server draining")
	return true
}

// --- handlers ---------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.total.Add(1)
	if !s.allowMethod(w, r, http.MethodGet) {
		return
	}
	s.writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Docs: s.eng.Len()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.total.Add(1)
	if !s.allowMethod(w, r, http.MethodGet) {
		return
	}
	cs := s.eng.CacheStats()
	var expandAll obs.HistSnapshot
	quality := make(map[string]HistogramSummary, qec.NumQualities)
	for qi := range s.expandHist {
		snap := s.expandHist[qi].Snapshot()
		expandAll.Merge(snap)
		quality[qec.Quality(qi).String()] = summarize(snap)
	}
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Docs:          s.eng.Len(),
		Requests: RequestStats{
			Total:    s.total.Load(),
			Search:   s.searches.Load(),
			Expand:   s.expands.Load(),
			Errors:   s.errcount.Load(),
			Timeouts: s.timeouts.Load(),
			Rejected: s.rejects.Load(),
			Canceled: s.canceled.Load(),
		},
		Cache: CacheStats{
			Hits:         cs.Hits,
			Misses:       cs.Misses,
			Evictions:    cs.Evictions,
			Entries:      cs.Entries,
			Capacity:     cs.Capacity,
			HitRate:      cs.HitRate(),
			Computations: cs.Computations,
			Coalesced:    cs.Coalesced,
		},
		Workers: WorkerStats{
			Capacity: s.opts.MaxConcurrent,
			InFlight: s.inFlight.Load(),
			Queued:   s.queued.Load(),
		},
		Latency: LatencyStats{
			Search:  summarize(s.searchHist.Snapshot()),
			Expand:  summarize(expandAll),
			Quality: quality,
		},
		Rates: s.rateStats(),
	}
	if s.ctrl != nil {
		snap := s.ctrl.Snapshot()
		tiers := make(map[string]HistogramSummary, degrade.NumTiers)
		for ti := range s.tierHist {
			if hs := s.tierHist[ti].Snapshot(); hs.Count > 0 {
				tiers[degrade.Tier(ti).String()] = summarize(hs)
			}
		}
		resp.Degrade = &DegradeStats{
			Tier:        snap.Tier.String(),
			MaxTier:     snap.MaxTier.String(),
			Pressure:    snap.Pressure,
			Steps:       snap.Steps,
			Transitions: snap.Transitions,
			Shed:        s.sheds.Load(),
			Latency:     tiers,
		}
	}
	if em, ok := s.eng.(engineMetrics); ok {
		m := em.Metrics()
		resp.KMeans = KMeansStats{
			Restarts:   int64(m.KMeansRestarts.Load()),
			Iterations: int64(m.KMeansIterations.Load()),
			Abandoned:  int64(m.AbandonedRestarts.Load()),
		}
		// Per-method split of *uncached pipeline-run* latency (the engine
		// only observes actual backend runs, never cache hits or coalesced
		// waits). Methods with no runs yet are omitted.
		method := make(map[string]HistogramSummary, qec.NumMethodSlots)
		for mi := range m.PerMethod {
			if snap := m.PerMethod[mi].Snapshot(); snap.Count > 0 {
				method[qec.MethodLabel(mi)] = summarize(snap)
			}
		}
		resp.Latency.Method = method
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	s.total.Add(1)
	s.searches.Add(1)
	if !s.allowMethod(w, r, http.MethodPost) {
		return
	}
	if s.rejectDraining(w) {
		return
	}
	var req SearchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		s.writeError(w, http.StatusBadRequest, "query is required")
		return
	}
	traceID := s.requestTraceID(r)
	w.Header().Set("X-Trace-Id", obs.IDString(traceID))
	start := time.Now()
	token := s.active.Begin(&obs.ActiveRequest{
		TraceID: traceID, Endpoint: "search", Query: req.Query, Start: start,
	})
	defer s.active.End(token)
	results := s.eng.Search(req.Query, req.TopK)
	resp := SearchResponse{
		Count:  len(results),
		Hits:   make([]SearchHit, 0, len(results)),
		TookMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	getter, hasGetter := s.eng.(interface{ Get(qec.DocID) *qec.Document })
	for _, res := range results {
		hit := SearchHit{ID: int(res.Doc), Score: res.Score}
		if hasGetter {
			if doc := getter.Get(res.Doc); doc != nil {
				hit.Title = doc.Title
			}
		}
		resp.Hits = append(resp.Hits, hit)
	}
	s.writeJSON(w, http.StatusOK, resp)
	took := time.Since(start)
	s.searchHist.Observe(took)
	entry := accessEntry{
		trace:    traceID,
		endpoint: "search",
		query:    req.Query,
		status:   http.StatusOK,
		took:     took,
	}
	s.logRequest(&entry)
	s.recordFlight(&entry, start, nil)
}

func (s *Server) handleExpand(w http.ResponseWriter, r *http.Request) {
	s.total.Add(1)
	s.expands.Add(1)
	if !s.allowMethod(w, r, http.MethodPost) {
		return
	}
	if s.rejectDraining(w) {
		return
	}
	var req ExpandRequest
	if !s.decode(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		s.writeError(w, http.StatusBadRequest, "query is required")
		return
	}
	opts, err := req.Options(s.opts.DefaultQuality)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	traceID := s.requestTraceID(r)
	w.Header().Set("X-Trace-Id", obs.IDString(traceID))
	entry := accessEntry{
		trace:    traceID,
		endpoint: "expand",
		query:    req.Query,
		method:   qec.MethodLabel(int(opts.Method)),
	}
	start := time.Now()
	token := s.active.Begin(&obs.ActiveRequest{
		TraceID: traceID, Endpoint: "expand", Query: req.Query, Start: start,
	})
	defer s.active.End(token)

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()

	// Admission: consult the degradation controller (when enabled) before
	// the request touches the worker queue. The decision is stamped on the
	// response header up front so even shed requests carry their tier.
	var dec degrade.Decision
	if s.ctrl != nil {
		remaining := s.opts.RequestTimeout
		if dl, ok := ctx.Deadline(); ok {
			remaining = time.Until(dl)
		}
		dec = s.ctrl.Admit(remaining)
		w.Header().Set("X-Qec-Tier", dec.Tier.String())
		entry.tier = int(dec.Tier)
	}
	if dec.Shed {
		// T4: the ladder's last rung. The 503 carries a Retry-After derived
		// from the queue drain rate; the shed is notable in the flight
		// recorder (outcome "rejected"), so operators can see exactly which
		// queries were turned away.
		s.sheds.Add(1)
		s.rejects.Add(1)
		s.writeRetryError(w, http.StatusServiceUnavailable,
			"degraded to shedding (tier T4), try again later")
		entry.status = http.StatusServiceUnavailable
		entry.took = time.Since(start)
		s.tierHist[dec.Tier].Observe(entry.took)
		s.logRequest(&entry)
		s.recordFlight(&entry, start, nil)
		return
	}
	if dec.CacheOnly {
		// T3: answer from the expansion cache under the request's own
		// options — cached entries hold full-fidelity answers computed in
		// calmer times, strictly better than anything T3 could compute now.
		if exp, ok := s.eng.ExpandCached(req.Query, opts); ok {
			took := time.Since(start)
			s.expandHist[opts.Quality].Observe(took)
			s.tierHist[dec.Tier].Observe(took)
			s.writeExpand(w, exp, float64(took.Microseconds())/1000, int(dec.Tier), nil, nil)
			entry.status = http.StatusOK
			entry.took = took
			entry.cache = obs.CacheHit
			entry.quality = opts.Quality.String()
			s.logRequest(&entry)
			s.recordFlight(&entry, start, nil)
			return
		}
		// Miss: a fast single-cluster fallback (K=1 skips the k-means
		// restart ladder almost entirely) through the worker pool, at the
		// minimal quality floor applied below.
		opts.K = 1
		opts.Interleave = 0
	}
	opts.Quality = max(opts.Quality, dec.Floor)
	entry.quality = opts.Quality.String()

	// Acquire a worker slot, giving up at the request deadline.
	s.queued.Inc()
	select {
	case s.workers <- struct{}{}:
		s.queued.Dec()
	case <-ctx.Done():
		s.queued.Dec()
		if r.Context().Err() != nil {
			// The client went away while queued — not server saturation.
			s.canceled.Add(1)
			s.writeError(w, statusClientClosedRequest, "client closed request")
			entry.status = statusClientClosedRequest
		} else {
			s.rejects.Add(1)
			s.writeRetryError(w, http.StatusServiceUnavailable,
				"expansion workers saturated, try again")
			entry.status = http.StatusServiceUnavailable
		}
		entry.took = time.Since(start)
		s.logRequest(&entry)
		s.recordFlight(&entry, start, nil)
		return
	}

	type outcome struct {
		exp *qec.Expansion
		ex  *qec.Explain
		err error
	}
	tr := obs.GetTrace()
	tr.ID = traceID
	done := make(chan outcome, 1)
	go func() {
		// The request context threads all the way into the pipeline: a
		// timed-out or abandoned computation stops at the next round
		// boundary (k-means round, per-cluster solve) and frees its worker
		// slot promptly instead of running to completion — under saturation
		// that reclaimed slot is the difference between draining the queue
		// and compounding it. Cancelled runs error out and cache nothing.
		s.inFlight.Inc()
		defer func() {
			s.inFlight.Dec()
			s.expandsDone.Add(1)
			<-s.workers
		}()
		var out outcome
		if req.Explain {
			out.exp, out.ex, out.err = s.eng.ExpandExplained(ctx, req.Query, opts, tr)
		} else {
			out.exp, out.err = s.eng.ExpandTraced(ctx, req.Query, opts, tr)
		}
		done <- out
	}()

	select {
	case out := <-done:
		took := time.Since(start)
		entry.took = took
		entry.cache = tr.Cache
		entry.tr = tr
		s.expandHist[opts.Quality].Observe(took)
		if s.ctrl != nil {
			s.tierHist[dec.Tier].Observe(took)
		}
		switch {
		case r.Context().Err() != nil:
			// The client disconnected while the expansion ran and the
			// completion beat the connection-close notification to this
			// select: still a disconnect, not a served request. (Without
			// this, the classification depends on which signal wins the
			// race.)
			s.canceled.Add(1)
			s.writeError(w, statusClientClosedRequest, "client closed request")
			entry.status = statusClientClosedRequest
		case errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded):
			// The engine surfaced our own cancellation (the pipeline stopped
			// at a round boundary). The deadline case races with ctx.Done
			// below — both classify it as a timeout either way.
			s.timeouts.Add(1)
			s.writeRetryError(w, http.StatusGatewayTimeout, "expansion timed out")
			entry.status = http.StatusGatewayTimeout
		case out.err != nil:
			status := http.StatusUnprocessableEntity
			switch {
			case errors.Is(out.err, qec.ErrNoResults):
				status = http.StatusNotFound
			case errors.Is(out.err, qec.ErrEmptyQuery):
				status = http.StatusBadRequest
			}
			s.writeError(w, status, out.err.Error())
			entry.status = status
		default:
			var debug *ExpandDebug
			if req.Debug {
				debug = newExpandDebug(tr)
			}
			s.writeExpand(w, out.exp, float64(took.Microseconds())/1000, int(dec.Tier), debug, out.ex)
			entry.status = http.StatusOK
		}
		s.logRequest(&entry)
		s.recordFlight(&entry, start, tr)
		entry.tr = nil
		obs.PutTrace(tr)
	case <-ctx.Done():
		// The worker goroutine is still writing to tr, so it cannot be
		// recycled on this path — it escapes to the garbage collector.
		entry.took = time.Since(start)
		if r.Context().Err() != nil {
			// Client disconnect, not a slow expansion: keep the timeout
			// counter honest for operators watching /stats.
			s.canceled.Add(1)
			s.writeError(w, statusClientClosedRequest, "client closed request")
			entry.status = statusClientClosedRequest
		} else {
			s.timeouts.Add(1)
			s.writeRetryError(w, http.StatusGatewayTimeout, "expansion timed out")
			entry.status = http.StatusGatewayTimeout
		}
		s.logRequest(&entry)
		// tr is still owned by the worker goroutine on this path, so the
		// flight record carries no stage spans.
		s.recordFlight(&entry, start, nil)
	}
}

// --- request introspection ---------------------------------------------------

// requestTraceID honours a valid inbound X-Trace-Id header (16 hex digits —
// upstream proxies propagate their own IDs through it) and otherwise
// generates a fresh ID.
func (s *Server) requestTraceID(r *http.Request) uint64 {
	if h := r.Header.Get("X-Trace-Id"); h != "" {
		if id, ok := obs.ParseID(h); ok && id != 0 {
			return id
		}
	}
	return obs.NextTraceID()
}

// outcomeFor maps the terminal HTTP status onto the flight recorder's coarse
// outcome buckets.
func outcomeFor(status int) obs.Outcome {
	switch {
	case status == http.StatusGatewayTimeout:
		return obs.OutcomeTimeout
	case status == statusClientClosedRequest:
		return obs.OutcomeCanceled
	case status == http.StatusServiceUnavailable:
		return obs.OutcomeRejected
	case status >= 400:
		return obs.OutcomeError
	default:
		return obs.OutcomeOK
	}
}

// recordFlight hands one completed request to the flight recorder. Slow and
// non-OK requests are notable: exempt from sampling and retained in the
// dedicated notable ring. tr may be nil (search requests, timed-out
// expansions whose trace is still owned by the worker goroutine).
func (s *Server) recordFlight(e *accessEntry, start time.Time, tr *obs.Trace) {
	rec := &obs.RequestRecord{
		TraceID:  e.trace,
		Endpoint: e.endpoint,
		Query:    e.query,
		Method:   e.method,
		Quality:  e.quality,
		Status:   e.status,
		Outcome:  outcomeFor(e.status),
		Start:    start,
		Took:     e.took,
	}
	rec.FromTrace(tr)
	rec.TraceID = e.trace
	rec.Tier = e.tier
	if rec.Cache == obs.CacheNone {
		// Paths that never ran a trace (the T3 cache-only read) still carry
		// a disposition on the entry.
		rec.Cache = e.cache
	}
	notable := rec.Outcome != obs.OutcomeOK ||
		(s.opts.SlowQuery > 0 && e.took >= s.opts.SlowQuery)
	s.flight.Record(rec, notable)
}

// DumpActive writes a snapshot of in-flight requests to the access log (the
// slow log when no access log is configured) — the SIGQUIT-style "what is
// this server doing right now" dump; qec-serve wires it to SIGUSR1. Returns
// the number of requests dumped.
func (s *Server) DumpActive() int {
	reqs := s.active.Snapshot()
	dst := s.accessLog
	if dst == nil {
		dst = s.slowLog
	}
	now := time.Now()
	dst.log(func(b []byte) []byte {
		b = append(b, `{"ts":"`...)
		b = now.AppendFormat(b, time.RFC3339Nano)
		b = append(b, `","dump":"active","count":`...)
		b = strconv.AppendInt(b, int64(len(reqs)), 10)
		b = append(b, `,"requests":[`...)
		for i, req := range reqs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"trace":"`...)
			b = obs.AppendID(b, req.TraceID)
			b = append(b, `","endpoint":`...)
			b = appendJSONString(b, req.Endpoint)
			b = append(b, `,"query":`...)
			b = appendJSONString(b, req.Query)
			b = append(b, `,"age_ms":`...)
			b = appendJSONFloat(b, float64(now.Sub(req.Start).Microseconds())/1000)
			b = append(b, '}')
		}
		return append(b, ']', '}')
	})
	return len(reqs)
}

// --- windowed rates -----------------------------------------------------------

// Rate-window counter and gauge layout. The window stores periodic snapshots
// of these; /stats and /metrics derive 1m/5m rates from them.
const (
	rcTotal = iota
	rcErrors
	rcTimeouts
	rcRejected
	rcCanceled
	rcKMeansRestarts
	rcKMeansAbandoned
	rcExpandDone
	numRateCounters
)

const (
	rgInFlight = iota
	rgQueued
	numRateGauges
)

// rateTickInterval is the sampling period; rateWindowSamples at that period
// spans comfortably more than the longest (5m) reported window.
const (
	rateTickInterval  = 10 * time.Second
	rateWindowSamples = 40
)

// rateSample snapshots the counters the rate window tracks.
func (s *Server) rateSample(now time.Time) obs.WindowSample {
	c := make([]uint64, numRateCounters)
	c[rcTotal] = uint64(s.total.Load())
	c[rcErrors] = uint64(s.errcount.Load())
	c[rcTimeouts] = uint64(s.timeouts.Load())
	c[rcRejected] = uint64(s.rejects.Load())
	c[rcCanceled] = uint64(s.canceled.Load())
	c[rcExpandDone] = uint64(s.expandsDone.Load())
	if em, ok := s.eng.(engineMetrics); ok {
		m := em.Metrics()
		c[rcKMeansRestarts] = m.KMeansRestarts.Load()
		c[rcKMeansAbandoned] = m.AbandonedRestarts.Load()
	}
	g := make([]int64, numRateGauges)
	g[rgInFlight] = s.inFlight.Load()
	g[rgQueued] = s.queued.Load()
	return obs.WindowSample{At: now, Counters: c, Gauges: g}
}

// maybeTickRates appends a rate sample when the newest one is at least a tick
// old. Reads (/stats, /metrics) call it so windows stay fresh under test
// harnesses and curl without Serve's background ticker; the CAS keeps
// concurrent callers from double-sampling.
func (s *Server) maybeTickRates() {
	now := time.Now()
	last := s.lastRateTick.Load()
	if now.UnixNano()-last < int64(rateTickInterval) {
		return
	}
	if !s.lastRateTick.CompareAndSwap(last, now.UnixNano()) {
		return
	}
	sample := s.rateSample(now)
	s.rates.Tick(sample)
	s.stepDegrade(now, sample)
}

// stepDegrade feeds one sampled signal set into the degradation controller.
// It runs on the rate-tick cadence (10s — by Serve's background ticker and
// lazily by /stats//metrics reads), so tier transitions happen at sample
// boundaries; the controller itself never reads a clock, which is what lets
// the soak test drive it with synthetic signal sequences and get the exact
// same ladder behaviour.
func (s *Server) stepDegrade(now time.Time, sample obs.WindowSample) {
	if s.ctrl == nil {
		return
	}
	const m1 = time.Minute
	s.ctrl.Step(degrade.Signals{
		Queued:   sample.Gauges[rgQueued],
		InFlight: sample.Gauges[rgInFlight],
		Capacity: int64(s.opts.MaxConcurrent),
		ErrorRatio: s.rates.Ratio(now, m1, rcErrors, rcTotal,
			sample.Counters[rcErrors], sample.Counters[rcTotal]),
		AbandonRatio: s.rates.Ratio(now, m1, rcKMeansAbandoned, rcKMeansRestarts,
			sample.Counters[rcKMeansAbandoned], sample.Counters[rcKMeansRestarts]),
	})
}

// DegradeSnapshot returns the degradation controller's current state; ok is
// false when degradation is disabled. qec-serve wires it to SIGUSR2.
func (s *Server) DegradeSnapshot() (degrade.Snapshot, bool) {
	if s.ctrl == nil {
		return degrade.Snapshot{}, false
	}
	return s.ctrl.Snapshot(), true
}

// retryAfterSeconds estimates when a rejected client should come back:
// queue-ahead-of-you divided by the 1m expansion completion rate (the drain
// rate), clamped to [1, 30] seconds. With no measurable drain and a standing
// queue the answer is the cap.
func (s *Server) retryAfterSeconds() int {
	queued := s.queued.Load() + s.inFlight.Load()
	now := time.Now()
	rate := s.rates.Rate(now, time.Minute, rcExpandDone, uint64(s.expandsDone.Load()))
	if rate <= 0 {
		if queued == 0 {
			return 1
		}
		return 30
	}
	secs := int(math.Ceil(float64(queued+1) / rate))
	if secs < 1 {
		return 1
	}
	if secs > 30 {
		return 30
	}
	return secs
}

// writeRetryError is writeError with a Retry-After header derived from the
// queue drain rate — every shed, saturation and timeout path goes through
// here so clients always learn when to come back.
func (s *Server) writeRetryError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	s.writeError(w, status, msg)
}

// rateStats derives the windowed rates for /stats and /metrics.
func (s *Server) rateStats() RateStats {
	s.maybeTickRates()
	now := time.Now()
	cur := s.rateSample(now)
	const m1, m5 = time.Minute, 5 * time.Minute
	rs := RateStats{
		QPS1M:         s.rates.Rate(now, m1, rcTotal, cur.Counters[rcTotal]),
		QPS5M:         s.rates.Rate(now, m5, rcTotal, cur.Counters[rcTotal]),
		ErrorRate1M:   s.rates.Ratio(now, m1, rcErrors, rcTotal, cur.Counters[rcErrors], cur.Counters[rcTotal]),
		ErrorRate5M:   s.rates.Ratio(now, m5, rcErrors, rcTotal, cur.Counters[rcErrors], cur.Counters[rcTotal]),
		AbandonRate1M: s.rates.Ratio(now, m1, rcKMeansAbandoned, rcKMeansRestarts, cur.Counters[rcKMeansAbandoned], cur.Counters[rcKMeansRestarts]),
	}
	if mean, max, ok := s.rates.GaugeTrend(now, m1, rgQueued); ok {
		rs.QueueMean1M = mean
		rs.QueueMax1M = max
	}
	return rs
}

// --- plumbing ---------------------------------------------------------------

func (s *Server) allowMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	s.writeError(w, http.StatusMethodNotAllowed, "method not allowed, use "+method)
	return false
}

// wireBuf is the per-request scratch the wire layer recycles: the request
// body is slurped into body and decoded off it in one shot through the
// resettable reader, and the response is encoded into out and written with
// an explicit Content-Length. Every JSON request and response goes through
// encoding/json, so the struct tags in wire.go are the one definition of the
// wire format. At steady state neither buffer reallocates, no per-request
// buffered reader grows against the socket, and responses skip chunked
// encoding (one Write, one syscall).
type wireBuf struct {
	body bytes.Buffer
	out  bytes.Buffer
	rdr  bytes.Reader
}

var bufPool = sync.Pool{New: func() any { return new(wireBuf) }}

// decode reads the request body and decodes it into v strictly: unknown
// fields, type mismatches, malformed JSON and trailing data are all 400s;
// null leaves a field at its zero value, and keys match case-insensitively,
// as encoding/json does.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	wb := bufPool.Get().(*wireBuf)
	defer bufPool.Put(wb)
	wb.body.Reset()
	if _, err := wb.body.ReadFrom(body); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
			return false
		}
		s.writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return false
	}
	// Decode straight off the pooled bytes; the decoder copies what it
	// keeps (strings), so recycling the buffer after return is safe.
	wb.rdr.Reset(wb.body.Bytes())
	dec := json.NewDecoder(&wb.rdr)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return false
	}
	if dec.More() {
		s.writeError(w, http.StatusBadRequest, "invalid JSON body: trailing data")
		return false
	}
	return true
}

// writeJSON encodes v into the pooled buffer (encoding/json ends it with a
// newline) and writes it in one call with an explicit Content-Length.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	wb := bufPool.Get().(*wireBuf)
	defer bufPool.Put(wb)
	wb.out.Reset()
	writeBody(w, status, &wb.out, json.NewEncoder(&wb.out).Encode(v))
}

// writeExpand writes the body of every 200 /expand, byte-identical to
// writeJSON of the ExpandResponse it stands for (pinned by TestExpandWire).
func (s *Server) writeExpand(w http.ResponseWriter, exp *qec.Expansion, tookMS float64, degraded int, debug *ExpandDebug, explain *qec.Explain) {
	wb := bufPool.Get().(*wireBuf)
	defer bufPool.Put(wb)
	wb.out.Reset()
	writeBody(w, http.StatusOK, &wb.out, s.encodeExpand(&wb.out, exp, tookMS, degraded, debug, explain))
}

// encodeExpand appends an ExpandResponse body to out: "{", the ExpansionWire
// fields of exp, then took_ms, degraded, debug and explain in the response's
// field order. encoding/json encodes the expansion fields once per
// expansion: the memo's bytes serve every later write of the same pointer.
// An explained expansion bypassed the engine cache, so its pointer never
// recurs and it is not memoized.
func (s *Server) encodeExpand(out *bytes.Buffer, exp *qec.Expansion, tookMS float64, degraded int, debug *ExpandDebug, explain *qec.Explain) error {
	memo := s.wireMemo
	if explain != nil {
		memo = nil
	}
	enc := json.NewEncoder(out)
	if fields, ok := memoGet(memo, exp); ok {
		out.WriteByte('{')
		out.Write(fields)
	} else {
		if err := enc.Encode(newExpansionWire(exp)); err != nil {
			return err
		}
		out.Truncate(out.Len() - len("}\n"))
		if memo != nil {
			memo.Add(exp, bytes.Clone(out.Bytes()[1:]))
		}
	}
	b := append(out.AvailableBuffer(), `,"took_ms":`...)
	b = appendJSONFloat(b, tookMS)
	if degraded != 0 {
		b = append(b, `,"degraded":`...)
		b = strconv.AppendInt(b, int64(degraded), 10)
	}
	out.Write(b)
	if debug != nil {
		if err := encodeMember(out, enc, `,"debug":`, debug); err != nil {
			return err
		}
	}
	if explain != nil {
		if err := encodeMember(out, enc, `,"explain":`, explain); err != nil {
			return err
		}
	}
	out.WriteString("}\n")
	return nil
}

// memoGet returns the ExpansionWire fields of exp memoized in memo, if any.
func memoGet(memo *cache.Cache[*qec.Expansion, []byte], exp *qec.Expansion) ([]byte, bool) {
	if memo == nil {
		return nil, false
	}
	return memo.Get(exp)
}

// encodeMember appends one object member, key then the encoding of v, to out
// through enc (whose trailing newline it drops).
func encodeMember(out *bytes.Buffer, enc *json.Encoder, key string, v any) error {
	out.WriteString(key)
	if err := enc.Encode(v); err != nil {
		return err
	}
	out.Truncate(out.Len() - 1)
	return nil
}

// writeBody writes the encoded body in out with an explicit Content-Length,
// or a 500 when encoding it failed.
func writeBody(w http.ResponseWriter, status int, out *bytes.Buffer, err error) {
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(out.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(out.Bytes())
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.errcount.Add(1)
	s.writeJSON(w, status, ErrorResponse{Error: msg})
}
