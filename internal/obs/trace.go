package obs

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline stage of an expansion request. The order is
// the pipeline order; it is also the iteration order of per-stage metrics.
type Stage uint8

const (
	// StageParse is query analysis (string → term IDs).
	StageParse Stage = iota
	// StageSearch is the AND-semantics retrieval of the result universe.
	StageSearch
	// StageProblem is universe/problem construction: the result set, rank
	// weights and the per-cluster Definition 2.2 problems (candidate-pool
	// scoring included).
	StageProblem
	// StageCluster is k-means over the result universe (all restarts).
	StageCluster
	// StageSolve is the ISKR/PEBC/ΔF/OR solve over every cluster problem.
	StageSolve
	// StageAssemble is suggestion assembly: the wire-shaped Expansion built
	// from the solver output.
	StageAssemble
	// NumStages is the stage count (array sizes, iteration bounds).
	NumStages = iota
)

var stageNames = [NumStages]string{
	"parse", "search", "problem", "cluster", "solve", "assemble",
}

// String names the stage ("parse", "search", ...).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// CacheState classifies how an Expand request was satisfied.
type CacheState uint8

const (
	// CacheNone means the request never consulted the expansion cache
	// (tracing was attached outside Expand, or caching is disabled and the
	// pipeline has not run yet).
	CacheNone CacheState = iota
	// CacheComputed means the pipeline actually ran for this request.
	CacheComputed
	// CacheHit means the LRU cache served the result.
	CacheHit
	// CacheCoalesced means the request shared another caller's in-flight
	// computation (singleflight).
	CacheCoalesced
)

// String names the cache state ("computed", "hit", "coalesced", "none").
func (c CacheState) String() string {
	switch c {
	case CacheComputed:
		return "computed"
	case CacheHit:
		return "hit"
	case CacheCoalesced:
		return "coalesced"
	default:
		return "none"
	}
}

// Trace records the per-stage timing of one request. A nil *Trace is valid
// everywhere — every method no-ops — so instrumented code needs no nil
// branches at call sites. Traces are not safe for concurrent use; recycle
// them through GetTrace/PutTrace (sync.Pool), which keeps the hot path free
// of per-request allocations.
type Trace struct {
	// ID is the request's trace identifier (see NextTraceID / AppendID).
	ID uint64
	// Durations holds the accumulated time per stage. A stage entered twice
	// (interleave rounds) accumulates across its intervals.
	Durations [NumStages]time.Duration
	// Cache is how the request was satisfied.
	Cache CacheState
	// KMeansRestarts, KMeansIterations and KMeansAbandoned mirror the
	// k-means driver's per-run bookkeeping: restarts launched, total
	// iterations across all restarts, and restarts abandoned early
	// (serving mode only).
	KMeansRestarts, KMeansIterations, KMeansAbandoned int

	starts [NumStages]time.Time
}

// Reset clears the trace for reuse.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	*t = Trace{}
}

// Begin marks the start of a stage (and, when profiling labels are enabled,
// labels the goroutine so CPU samples taken during the stage — including on
// workers spawned by it — attribute to it).
func (t *Trace) Begin(s Stage) {
	if labelsOn.Load() {
		pprof.SetGoroutineLabels(stageLabelCtx[s])
	}
	if t == nil {
		return
	}
	t.starts[s] = time.Now()
}

// End closes the latest Begin of the stage, accumulating its elapsed time.
func (t *Trace) End(s Stage) {
	if labelsOn.Load() {
		pprof.SetGoroutineLabels(noLabelCtx)
	}
	if t == nil {
		return
	}
	t.Durations[s] += time.Since(t.starts[s])
}

// Total returns the sum of all stage durations.
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	var sum time.Duration
	for _, d := range t.Durations {
		sum += d
	}
	return sum
}

// SetKMeans records the clustering driver's restart bookkeeping.
func (t *Trace) SetKMeans(restarts, iterations, abandoned int) {
	if t == nil {
		return
	}
	t.KMeansRestarts = restarts
	t.KMeansIterations = iterations
	t.KMeansAbandoned = abandoned
}

// MarkCache records how the request was satisfied.
func (t *Trace) MarkCache(c CacheState) {
	if t == nil {
		return
	}
	t.Cache = c
}

// WriteTable writes a human-readable per-stage timing table (used by
// qec-expand -trace and useful in tests).
func (t *Trace) WriteTable(w io.Writer) {
	if t == nil {
		return
	}
	fmt.Fprintf(w, "%-10s %12s\n", "stage", "time")
	for s := Stage(0); s < NumStages; s++ {
		fmt.Fprintf(w, "%-10s %12v\n", s, t.Durations[s])
	}
	fmt.Fprintf(w, "%-10s %12v\n", "total", t.Total())
	if t.KMeansRestarts > 0 {
		fmt.Fprintf(w, "k-means: %d restarts, %d iterations, %d abandoned\n",
			t.KMeansRestarts, t.KMeansIterations, t.KMeansAbandoned)
	}
}

// --- trace pool -------------------------------------------------------------

var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// GetTrace returns a reset Trace from the pool.
func GetTrace() *Trace {
	t := tracePool.Get().(*Trace)
	t.Reset()
	return t
}

// PutTrace recycles a trace. The caller must not retain it.
func PutTrace(t *Trace) {
	if t != nil {
		tracePool.Put(t)
	}
}

// --- trace IDs --------------------------------------------------------------

// traceSeq issues trace IDs: a per-process random base (so IDs from
// different processes don't collide trivially) plus an atomic increment.
var traceSeq atomic.Uint64

func init() {
	var seed [8]byte
	// maphash-quality randomness is unnecessary; the time base only has to
	// differ between processes.
	binary.LittleEndian.PutUint64(seed[:], uint64(time.Now().UnixNano()))
	traceSeq.Store(binary.LittleEndian.Uint64(seed[:]) * 0x9E3779B97F4A7C15)
}

// NextTraceID returns a process-unique request identifier.
func NextTraceID() uint64 { return traceSeq.Add(1) }

// AppendID appends the canonical 16-hex-digit rendering of a trace ID.
func AppendID(dst []byte, id uint64) []byte {
	const hex = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hex[(id>>uint(shift))&0xF])
	}
	return dst
}

// IDString renders a trace ID as its 16-hex-digit string.
func IDString(id uint64) string {
	var buf [16]byte
	return string(AppendID(buf[:0], id))
}

// ParseID parses the canonical 16-hex-digit rendering of a trace ID
// (uppercase digits accepted). Used to validate inbound X-Trace-Id headers:
// anything that does not parse gets a fresh server-generated ID instead.
func ParseID(s string) (uint64, bool) {
	if len(s) != 16 {
		return 0, false
	}
	var id uint64
	for i := 0; i < 16; i++ {
		var d uint64
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		id = id<<4 | d
	}
	return id, true
}

// --- pprof stage labels -----------------------------------------------------

// labelsOn gates per-stage pprof labels. Off by default: swapping goroutine
// label maps is cheap but not free, and the serving benchmarks pin the
// instrumented hot path at zero extra allocations — the label contexts below
// are built once at init so enabling them stays allocation-free per call.
var labelsOn atomic.Bool

var (
	noLabelCtx    = context.Background()
	stageLabelCtx [NumStages]context.Context
)

func init() {
	for s := Stage(0); s < NumStages; s++ {
		stageLabelCtx[s] = pprof.WithLabels(context.Background(),
			pprof.Labels("qec_stage", s.String()))
	}
}

// EnableProfileLabels switches per-stage pprof goroutine labels on or off
// (qec-serve enables them alongside -pprof-addr).
func EnableProfileLabels(on bool) { labelsOn.Store(on) }

// ProfileLabelsEnabled reports whether stage labels are being applied.
func ProfileLabelsEnabled() bool { return labelsOn.Load() }
