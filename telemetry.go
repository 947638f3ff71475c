package qec

import (
	"context"
	"time"

	"repro/internal/obs"
)

// Telemetry array sizes: the quality levels (exact, serving, minimal) and
// built-in expansion methods (ISKR, PEBC, DeltaF, OR-ISKR, Vector, Lexical,
// Orthogonal) are closed enums, so the metrics below are fixed arrays of
// lock-free histograms — no maps, no registration, nothing to allocate per
// request. Custom backends registered with WithExpander share one extra
// "custom" slot.
const (
	// NumQualities is the number of clustering quality levels; a level's
	// metrics slot is int(q) and its label q.String().
	NumQualities = int(QualityMinimal) + 1
	// NumMethods is the number of built-in expansion methods.
	NumMethods = 7
	// CustomMethodSlot is the shared telemetry slot of all custom backends.
	CustomMethodSlot = NumMethods
	// NumMethodSlots is the per-method metrics array size: the built-in
	// methods plus the custom slot.
	NumMethodSlots = NumMethods + 1
)

// MethodLabel names a method metrics slot in wire form ("iskr", "pebc",
// "deltaf", "or", "vector", "lexical", "orthogonal", and "custom" for the
// shared WithExpander slot).
func MethodLabel(i int) string {
	if i == CustomMethodSlot {
		return "custom"
	}
	if i >= 0 && i < NumMethods {
		return methodRegistry[i].Name
	}
	return "iskr"
}

// ExpansionMetrics aggregates the engine's pipeline telemetry. All fields
// are lock-free obs primitives: recording is wait-free and allocation-free,
// and reading produces mergeable snapshots. Latency histograms cover actual
// pipeline runs only — cache hits and coalesced waits are excluded here and
// measured by the serving layer, which sees user-visible latency per
// endpoint.
type ExpansionMetrics struct {
	// PerQuality and PerMethod are cold-expansion latency histograms keyed
	// by quality level / Method ordinal (custom backends land in the shared
	// CustomMethodSlot).
	PerQuality [NumQualities]obs.Histogram
	PerMethod  [NumMethodSlots]obs.Histogram
	// PerStage holds one latency histogram per pipeline stage.
	PerStage [obs.NumStages]obs.Histogram
	// KMeansRestarts, KMeansIterations and AbandonedRestarts total the
	// k-means driver's bookkeeping across all runs.
	KMeansRestarts    obs.Counter
	KMeansIterations  obs.Counter
	AbandonedRestarts obs.Counter
}

// observe records one completed pipeline run. slot is the dispatched
// backend's metrics slot, as resolved by backendFor — the Method ordinal
// for built-ins, CustomMethodSlot for custom backends.
func (m *ExpansionMetrics) observe(opts ExpandOptions, slot int, tr *obs.Trace, total time.Duration) {
	m.PerQuality[opts.Quality].Observe(total)
	if slot < 0 || slot >= NumMethodSlots {
		slot = 0
	}
	m.PerMethod[slot].Observe(total)
	for s := 0; s < obs.NumStages; s++ {
		if d := tr.Durations[s]; d > 0 {
			m.PerStage[s].Observe(d)
		}
	}
	m.KMeansRestarts.Add(uint64(tr.KMeansRestarts))
	m.KMeansIterations.Add(uint64(tr.KMeansIterations))
	m.AbandonedRestarts.Add(uint64(tr.KMeansAbandoned))
}

// Metrics exposes the engine's telemetry for rendering (the HTTP server's
// /metrics and /stats read it). The returned pointer is live — snapshot the
// histograms to read consistent values. Safe for concurrent use.
func (e *Engine) Metrics() *ExpansionMetrics { return &e.metrics }

// ExpandTraced is Expand with a request trace and cancellation attached:
// per-stage spans, k-means restart bookkeeping and the cache disposition are
// recorded into tr. A nil tr records engine metrics only (Expand delegates
// here with context.Background and nil). On a cache hit or a coalesced wait
// the trace carries the cache state and no stage spans — the pipeline did
// not run for this caller.
//
// Cancellation: ctx is polled at pipeline round boundaries (before each
// k-means iteration, per-cluster solves); a cancelled run returns ctx.Err()
// and caches nothing.
// Coalesced callers share the computing leader's fate — if the leader's ctx
// is cancelled, followers get its error too (they are free to retry).
func (e *Engine) ExpandTraced(ctx context.Context, raw string, opts ExpandOptions, tr *obs.Trace) (*Expansion, error) {
	if e.expCache == nil {
		return e.expand(ctx, raw, opts, tr)
	}
	key := e.expandKey(raw, opts)
	if exp, ok := e.expCache.Get(key); ok {
		tr.MarkCache(obs.CacheHit)
		return exp, nil
	}
	exp, err, shared := e.flight.Do(key, func() (*Expansion, error) {
		// Double-check under the flight: a concurrent computation may have
		// landed between our Get miss and Do, and recomputing then would
		// break the one-computation guarantee coalescing exists to give.
		// Peek, not Get — the outer Get already counted this request.
		if exp, ok := e.expCache.Peek(key); ok {
			tr.MarkCache(obs.CacheHit)
			return exp, nil
		}
		exp, err := e.expand(ctx, raw, opts, tr)
		if err == nil {
			e.expCache.Add(key, exp)
		}
		return exp, err
	})
	if shared {
		// This caller's closure never ran; its result came from another
		// caller's in-flight computation.
		tr.MarkCache(obs.CacheCoalesced)
	}
	return exp, err
}
