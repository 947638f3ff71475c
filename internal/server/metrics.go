package server

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	qec "repro"
	"repro/internal/degrade"
	"repro/internal/obs"
	"repro/internal/par"
)

// GET /metrics renders the server's telemetry in Prometheus text exposition
// format (version 0.0.4): request counters, cache/coalescer stats, worker
// pool gauges, and the latency histograms — per endpoint, per quality tier,
// per expansion method and per pipeline stage. The page is rendered with
// the wire layer's pooled append-encode buffers, so a scrape costs no
// steady-state allocations beyond the response write itself.

// engineMetrics is the optional interface a served engine implements to
// expose its pipeline telemetry (*qec.Engine does via Metrics()).
type engineMetrics interface {
	Metrics() *qec.ExpansionMetrics
}

// Pre-rendered label sets: compile-time constants so the scrape path builds
// no label strings.
var (
	qualityLabels = [qec.NumQualities]string{`quality="exact"`, `quality="serving"`, `quality="minimal"`}
	methodLabels  = [qec.NumMethodSlots]string{
		`method="iskr"`, `method="pebc"`, `method="deltaf"`, `method="or"`,
		`method="vector"`, `method="lexical"`, `method="orthogonal"`,
		`method="custom"`,
	}
	stageLabels = [obs.NumStages]string{
		`stage="parse"`, `stage="search"`, `stage="problem"`,
		`stage="cluster"`, `stage="solve"`, `stage="assemble"`,
	}
	tierLabels = [degrade.NumTiers]string{
		`tier="T0"`, `tier="T1"`, `tier="T2"`, `tier="T3"`, `tier="T4"`,
	}
)

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.total.Add(1)
	if !s.allowMethod(w, r, http.MethodGet) {
		return
	}
	wb := bufPool.Get().(*wireBuf)
	defer bufPool.Put(wb)
	wb.out.Reset()
	wb.out.Write(s.appendMetrics(wb.out.AvailableBuffer()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(wb.out.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(wb.out.Bytes())
}

// buildInfoLabels is the qec_build_info label set, rendered once at startup:
// the module version (when built from a module-aware build), the Go toolchain
// and the process's GOMAXPROCS.
var buildInfoLabels = func() string {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	return `version="` + version + `",goversion="` + runtime.Version() +
		`",gomaxprocs="` + strconv.Itoa(runtime.GOMAXPROCS(0)) + `"`
}()

// appendMetrics renders the whole exposition page.
func (s *Server) appendMetrics(dst []byte) []byte {
	// --- process ---
	dst = obs.AppendPromHeader(dst, "qec_build_info", "Build metadata; the value is always 1.", "gauge")
	dst = obs.AppendPromInt(dst, "qec_build_info", buildInfoLabels, 1)
	dst = obs.AppendPromHeader(dst, "qec_start_time_seconds", "Unix time the server started.", "gauge")
	dst = obs.AppendPromFloat(dst, "qec_start_time_seconds", "", float64(s.started.UnixNano())/1e9)
	dst = obs.AppendPromHeader(dst, "qec_uptime_seconds", "Seconds since the server started.", "gauge")
	dst = obs.AppendPromFloat(dst, "qec_uptime_seconds", "", time.Since(s.started).Seconds())
	dst = obs.AppendPromHeader(dst, "qec_corpus_docs", "Documents in the served corpus.", "gauge")
	dst = obs.AppendPromInt(dst, "qec_corpus_docs", "", int64(s.eng.Len()))

	// --- windowed rates ---
	rates := s.rateStats()
	dst = obs.AppendPromHeader(dst, "qec_qps_1m", "Requests per second over the trailing minute.", "gauge")
	dst = obs.AppendPromFloat(dst, "qec_qps_1m", "", rates.QPS1M)
	dst = obs.AppendPromHeader(dst, "qec_qps_5m", "Requests per second over the trailing five minutes.", "gauge")
	dst = obs.AppendPromFloat(dst, "qec_qps_5m", "", rates.QPS5M)
	dst = obs.AppendPromHeader(dst, "qec_error_ratio_1m", "Non-2xx responses per request over the trailing minute.", "gauge")
	dst = obs.AppendPromFloat(dst, "qec_error_ratio_1m", "", rates.ErrorRate1M)
	dst = obs.AppendPromHeader(dst, "qec_kmeans_abandon_ratio_1m",
		"K-means restarts abandoned per restart over the trailing minute.", "gauge")
	dst = obs.AppendPromFloat(dst, "qec_kmeans_abandon_ratio_1m", "", rates.AbandonRate1M)
	dst = obs.AppendPromHeader(dst, "qec_queue_depth_1m_max",
		"Maximum sampled worker-queue depth over the trailing minute.", "gauge")
	dst = obs.AppendPromInt(dst, "qec_queue_depth_1m_max", "", rates.QueueMax1M)

	// --- flight recorder ---
	recorded, dropped, shift := s.flight.Stats()
	dst = obs.AppendPromHeader(dst, "qec_flight_recorded_total", "Request records admitted to the flight recorder.", "counter")
	dst = obs.AppendPromUint(dst, "qec_flight_recorded_total", "", recorded)
	dst = obs.AppendPromHeader(dst, "qec_flight_sampled_out_total",
		"Plain request records shed by the flight recorder's adaptive sampling.", "counter")
	dst = obs.AppendPromUint(dst, "qec_flight_sampled_out_total", "", dropped)
	dst = obs.AppendPromHeader(dst, "qec_flight_sample_shift",
		"Current flight-recorder decimation: 1 in 2^shift plain records admitted.", "gauge")
	dst = obs.AppendPromInt(dst, "qec_flight_sample_shift", "", int64(shift))

	// --- request counters ---
	dst = obs.AppendPromHeader(dst, "qec_http_requests_total", "HTTP requests received, all endpoints.", "counter")
	dst = obs.AppendPromInt(dst, "qec_http_requests_total", "", s.total.Load())
	dst = obs.AppendPromHeader(dst, "qec_http_endpoint_requests_total", "HTTP requests by endpoint.", "counter")
	dst = obs.AppendPromInt(dst, "qec_http_endpoint_requests_total", `endpoint="search"`, s.searches.Load())
	dst = obs.AppendPromInt(dst, "qec_http_endpoint_requests_total", `endpoint="expand"`, s.expands.Load())
	dst = obs.AppendPromHeader(dst, "qec_http_errors_total", "Requests answered with a non-2xx status.", "counter")
	dst = obs.AppendPromInt(dst, "qec_http_errors_total", "", s.errcount.Load())
	dst = obs.AppendPromHeader(dst, "qec_http_timeouts_total", "Expansions that exceeded the request deadline.", "counter")
	dst = obs.AppendPromInt(dst, "qec_http_timeouts_total", "", s.timeouts.Load())
	dst = obs.AppendPromHeader(dst, "qec_http_rejected_total", "Requests rejected because the worker pool stayed saturated.", "counter")
	dst = obs.AppendPromInt(dst, "qec_http_rejected_total", "", s.rejects.Load())
	dst = obs.AppendPromHeader(dst, "qec_http_canceled_total", "Requests whose client disconnected first.", "counter")
	dst = obs.AppendPromInt(dst, "qec_http_canceled_total", "", s.canceled.Load())

	// --- worker pool ---
	dst = obs.AppendPromHeader(dst, "qec_workers_capacity", "Expansion worker pool size.", "gauge")
	dst = obs.AppendPromInt(dst, "qec_workers_capacity", "", int64(s.opts.MaxConcurrent))
	dst = obs.AppendPromHeader(dst, "qec_workers_in_flight", "Expansions currently executing.", "gauge")
	dst = obs.AppendPromInt(dst, "qec_workers_in_flight", "", s.inFlight.Load())
	dst = obs.AppendPromHeader(dst, "qec_workers_queued", "Requests waiting for a worker slot.", "gauge")
	dst = obs.AppendPromInt(dst, "qec_workers_queued", "", s.queued.Load())

	// --- degradation controller (when enabled) ---
	if s.ctrl != nil {
		dst = obs.AppendPromHeader(dst, "qec_degrade_tier",
			"Current degradation ladder tier (0 = full quality, 4 = shedding).", "gauge")
		dst = obs.AppendPromInt(dst, "qec_degrade_tier", "", int64(s.ctrl.Tier()))
		dst = obs.AppendPromHeader(dst, "qec_degrade_transitions_total",
			"Degradation tier changes, both directions.", "counter")
		dst = obs.AppendPromInt(dst, "qec_degrade_transitions_total", "", s.ctrl.Transitions())
		dst = obs.AppendPromHeader(dst, "qec_shed_total",
			"Requests shed by the degradation controller (tier T4).", "counter")
		dst = obs.AppendPromInt(dst, "qec_shed_total", "", s.sheds.Load())
		dst = obs.AppendPromHeader(dst, "qec_degrade_request_duration_seconds",
			"Expand request latency by the degradation tier served at.", "histogram")
		for ti := range s.tierHist {
			dst = obs.AppendPromHistogram(dst, "qec_degrade_request_duration_seconds",
				tierLabels[ti], s.tierHist[ti].Snapshot())
		}
	}

	// --- expansion cache / coalescer ---
	cs := s.eng.CacheStats()
	dst = obs.AppendPromHeader(dst, "qec_cache_hits_total", "Expansion cache hits.", "counter")
	dst = obs.AppendPromInt(dst, "qec_cache_hits_total", "", cs.Hits)
	dst = obs.AppendPromHeader(dst, "qec_cache_misses_total", "Expansion cache misses.", "counter")
	dst = obs.AppendPromInt(dst, "qec_cache_misses_total", "", cs.Misses)
	dst = obs.AppendPromHeader(dst, "qec_cache_evictions_total", "Expansion cache evictions.", "counter")
	dst = obs.AppendPromInt(dst, "qec_cache_evictions_total", "", cs.Evictions)
	dst = obs.AppendPromHeader(dst, "qec_cache_entries", "Current expansion cache entries.", "gauge")
	dst = obs.AppendPromInt(dst, "qec_cache_entries", "", int64(cs.Entries))
	dst = obs.AppendPromHeader(dst, "qec_cache_capacity", "Configured expansion cache capacity.", "gauge")
	dst = obs.AppendPromInt(dst, "qec_cache_capacity", "", int64(cs.Capacity))
	dst = obs.AppendPromHeader(dst, "qec_computations_total", "Actual expansion pipeline runs.", "counter")
	dst = obs.AppendPromInt(dst, "qec_computations_total", "", cs.Computations)
	dst = obs.AppendPromHeader(dst, "qec_coalesced_total", "Expand calls that shared an in-flight computation.", "counter")
	dst = obs.AppendPromInt(dst, "qec_coalesced_total", "", cs.Coalesced)

	// --- endpoint latency (user-visible, cache hits included) ---
	dst = obs.AppendPromHeader(dst, "qec_http_request_duration_seconds",
		"Request latency by endpoint, including queueing and cache hits.", "histogram")
	dst = obs.AppendPromHistogram(dst, "qec_http_request_duration_seconds", `endpoint="search"`, s.searchHist.Snapshot())
	var expandAll obs.HistSnapshot
	for qi := range s.expandHist {
		expandAll.Merge(s.expandHist[qi].Snapshot())
	}
	dst = obs.AppendPromHistogram(dst, "qec_http_request_duration_seconds", `endpoint="expand"`, expandAll)

	dst = obs.AppendPromHeader(dst, "qec_expand_request_duration_seconds",
		"Expand request latency by clustering quality tier.", "histogram")
	for qi := range s.expandHist {
		dst = obs.AppendPromHistogram(dst, "qec_expand_request_duration_seconds", qualityLabels[qi], s.expandHist[qi].Snapshot())
	}

	// --- engine pipeline telemetry (when the engine exposes it) ---
	em, ok := s.eng.(engineMetrics)
	if !ok {
		return dst
	}
	m := em.Metrics()
	dst = obs.AppendPromHeader(dst, "qec_expand_pipeline_duration_seconds",
		"Uncached expansion pipeline latency by quality tier.", "histogram")
	for qi := range m.PerQuality {
		dst = obs.AppendPromHistogram(dst, "qec_expand_pipeline_duration_seconds", qualityLabels[qi], m.PerQuality[qi].Snapshot())
	}
	dst = obs.AppendPromHeader(dst, "qec_expand_method_duration_seconds",
		"Uncached expansion pipeline latency by expansion method.", "histogram")
	for mi := range m.PerMethod {
		dst = obs.AppendPromHistogram(dst, "qec_expand_method_duration_seconds", methodLabels[mi], m.PerMethod[mi].Snapshot())
	}
	dst = obs.AppendPromHeader(dst, "qec_stage_duration_seconds",
		"Pipeline stage latency across expansion runs.", "histogram")
	for si := range m.PerStage {
		dst = obs.AppendPromHistogram(dst, "qec_stage_duration_seconds", stageLabels[si], m.PerStage[si].Snapshot())
	}
	dst = obs.AppendPromHeader(dst, "qec_kmeans_restarts_total", "K-means restarts launched by the clustering driver.", "counter")
	dst = obs.AppendPromUint(dst, "qec_kmeans_restarts_total", "", m.KMeansRestarts.Load())
	dst = obs.AppendPromHeader(dst, "qec_kmeans_iterations_total", "K-means iterations summed across restarts.", "counter")
	dst = obs.AppendPromUint(dst, "qec_kmeans_iterations_total", "", m.KMeansIterations.Load())
	dst = obs.AppendPromHeader(dst, "qec_kmeans_abandoned_restarts_total",
		"Restarts abandoned early by serving-mode early abandonment.", "counter")
	dst = obs.AppendPromUint(dst, "qec_kmeans_abandoned_restarts_total", "", m.AbandonedRestarts.Load())

	// --- fan budget (process-wide, internal/par) ---
	dst = obs.AppendPromHeader(dst, "qec_core_fans_total",
		"Fans that could use helpers: k-means restarts and assignment scans, per-cluster problems and solving, experiment sweeps.", "counter")
	dst = obs.AppendPromUint(dst, "qec_core_fans_total", "", par.Fans.Load())
	dst = obs.AppendPromHeader(dst, "qec_core_fans_serial_total",
		"Fans that ran serial because the process-wide worker budget was exhausted.", "counter")
	dst = obs.AppendPromUint(dst, "qec_core_fans_serial_total", "", par.SerialFans.Load())
	dst = obs.AppendPromHeader(dst, "qec_core_fan_helpers_total",
		"Helper goroutines granted to fans from the process-wide budget.", "counter")
	dst = obs.AppendPromUint(dst, "qec_core_fan_helpers_total", "", par.Helpers.Load())
	return dst
}
