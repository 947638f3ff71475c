package obs

import (
	"sync/atomic"
	"time"
)

// Outcome classifies how a request finished. It is coarser than an HTTP
// status: the serving layer maps its terminal states onto these buckets so
// the flight recorder can filter without re-deriving policy from codes.
type Outcome uint8

const (
	// OutcomeOK is a request that completed normally.
	OutcomeOK Outcome = iota
	// OutcomeError is a request that failed (4xx/5xx other than the
	// dedicated buckets below).
	OutcomeError
	// OutcomeTimeout is a request that hit the server's request deadline.
	OutcomeTimeout
	// OutcomeCanceled is a request whose client went away mid-flight.
	OutcomeCanceled
	// OutcomeRejected is a request shed at admission (no worker slot).
	OutcomeRejected
	// NumOutcomes is the outcome count.
	NumOutcomes = iota
)

var outcomeNames = [NumOutcomes]string{
	"ok", "error", "timeout", "canceled", "rejected",
}

// String names the outcome ("ok", "error", "timeout", "canceled",
// "rejected").
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "unknown"
}

// ParseOutcome maps an outcome name back to its value (the /debug/requests
// filter input).
func ParseOutcome(s string) (Outcome, bool) {
	for i, name := range outcomeNames {
		if s == name {
			return Outcome(i), true
		}
	}
	return 0, false
}

// RequestRecord is one /expand or /search request: the server fills it
// from the moment the request arrives until its one terminal, which writes
// the access-log line from it and offers it to the flight recorder. The
// "debug" field of an /expand response is rendered from it too. The
// recorder keeps a copy, which concurrent readers share and nobody mutates.
type RequestRecord struct {
	// TraceID is the request's trace identifier (16-hex on the wire).
	TraceID uint64
	// Endpoint is the endpoint's name without its slash ("expand",
	// "search").
	Endpoint string
	// Query is the raw user query ("" when the request ended before its
	// body was decoded).
	Query string
	// Method and Quality are the expansion method/quality labels ("" for
	// /search and for requests that ended before they were known).
	Method  string
	Quality string
	// Status is the HTTP status written.
	Status int
	// Outcome is the coarse terminal state.
	Outcome Outcome
	// Cache is the expansion cache disposition (CacheNone for /search).
	Cache CacheState
	// Start is when the handler accepted the request; Took is end-to-end
	// handler latency.
	Start time.Time
	Took  time.Duration
	// Stages holds the per-stage pipeline spans (zero for /search and for
	// cache hits).
	Stages [NumStages]time.Duration
	// KMeansRestarts, KMeansIterations and KMeansAbandoned mirror the
	// request trace's clustering bookkeeping.
	KMeansRestarts, KMeansIterations, KMeansAbandoned int
	// Notable marks records the recorder exempts from sampling
	// (slow/error/aborted requests); set by Record.
	Notable bool
	// Tier is the degradation-ladder rung the request was served (or shed)
	// at — 0 both for tier T0 and when degradation is disabled (see
	// internal/degrade).
	Tier int
}

// FlightRecorder is a lock-free fixed-capacity ring of completed request
// records. Two rings back it: the main ring holds the most recent admitted
// records of any kind, and a smaller notable ring holds only
// slow/error/aborted requests, so a burst of fast traffic can never evict
// the one record an operator is looking for. Plain (fast, successful)
// records are sampled adaptively: when the main ring wraps faster than
// minWrap the admission rate halves (up to 1-in-1024), and it recovers when
// traffic slows. Notable records are always admitted to both rings.
//
// Record publishes its immutable copy of a record with a single atomic
// pointer store; readers load pointers. No locks, no seqlocks, no torn
// reads — eviction is overwrite.
type FlightRecorder struct {
	slots    []atomic.Pointer[RequestRecord]
	notables []atomic.Pointer[RequestRecord]

	head        atomic.Uint64 // admitted main-ring records (next ticket)
	notableHead atomic.Uint64 // admitted notable-ring records
	plainSeq    atomic.Uint64 // plain records offered (sampling input)

	sampleShift atomic.Int32 // admit 1 in 2^shift plain records
	lastWrapNS  atomic.Int64 // wall clock of the main ring's last wrap

	recorded Counter // records admitted to the main ring
	sampled  Counter // plain records dropped by sampling

	minWrap time.Duration // target minimum time for one main-ring lap
}

// Flight recorder tuning. maxSampleShift bounds the adaptive decimation at
// 1-in-1024; defaultMinWrap is the lap time below which the recorder starts
// shedding plain records.
const (
	maxSampleShift = 10
	defaultMinWrap = time.Second
)

// NewFlightRecorder returns a recorder whose main ring holds capacity
// records and whose notable ring holds notableCapacity slow/error/aborted
// records. Capacities are clamped to at least 1.
func NewFlightRecorder(capacity, notableCapacity int) *FlightRecorder {
	if capacity < 1 {
		capacity = 1
	}
	if notableCapacity < 1 {
		notableCapacity = 1
	}
	return &FlightRecorder{
		slots:    make([]atomic.Pointer[RequestRecord], capacity),
		notables: make([]atomic.Pointer[RequestRecord], notableCapacity),
		minWrap:  defaultMinWrap,
	}
}

// Capacity returns the main ring's slot count.
func (f *FlightRecorder) Capacity() int { return len(f.slots) }

// Record offers one completed request. notable marks slow/error/aborted
// requests: they bypass sampling and are retained in the dedicated notable
// ring as well as the main ring. Admission is decided first: a plain record
// that sampling drops costs nothing, and an admitted one is copied to the
// heap once, so the caller keeps rec.
func (f *FlightRecorder) Record(rec *RequestRecord, notable bool) {
	if shift := f.sampleShift.Load(); !notable && shift > 0 {
		if f.plainSeq.Add(1)&(1<<uint(shift)-1) != 0 {
			f.sampled.Inc()
			return
		}
	}
	kept := new(RequestRecord)
	*kept = *rec
	kept.Notable = notable
	if notable {
		i := f.notableHead.Add(1) - 1
		f.notables[i%uint64(len(f.notables))].Store(kept)
	}
	i := f.head.Add(1) - 1
	f.slots[i%uint64(len(f.slots))].Store(kept)
	f.recorded.Inc()
	if i > 0 && i%uint64(len(f.slots)) == 0 {
		f.adjustSampling()
	}
}

// adjustSampling runs once per main-ring lap: laps faster than minWrap
// double the plain-record decimation, laps slower than 8x minWrap halve it.
func (f *FlightRecorder) adjustSampling() {
	now := time.Now().UnixNano()
	last := f.lastWrapNS.Swap(now)
	if last == 0 {
		return
	}
	lap := time.Duration(now - last)
	switch shift := f.sampleShift.Load(); {
	case lap < f.minWrap && shift < maxSampleShift:
		f.sampleShift.CompareAndSwap(shift, shift+1)
	case lap > 8*f.minWrap && shift > 0:
		f.sampleShift.CompareAndSwap(shift, shift-1)
	}
}

// Snapshot returns up to max records, newest first: the main ring's most
// recent records, then any notable records the main ring has already
// evicted (deduplicated by trace ID). max <= 0 means all retained records.
func (f *FlightRecorder) Snapshot(max int) []*RequestRecord {
	limit := len(f.slots) + len(f.notables)
	if max <= 0 || max > limit {
		max = limit
	}
	out := make([]*RequestRecord, 0, max)
	seen := make(map[uint64]struct{}, max)
	collect := func(slots []atomic.Pointer[RequestRecord], head uint64) {
		n := uint64(len(slots))
		filled := head
		if filled > n {
			filled = n
		}
		for k := uint64(0); k < filled && len(out) < max; k++ {
			// Walk backwards from the newest admitted ticket; head > k so
			// the subtraction cannot underflow.
			rec := slots[(head-1-k)%n].Load()
			if rec == nil {
				continue
			}
			if _, dup := seen[rec.TraceID]; dup {
				continue
			}
			seen[rec.TraceID] = struct{}{}
			out = append(out, rec)
		}
	}
	if h := f.head.Load(); h > 0 {
		collect(f.slots, h)
	}
	if h := f.notableHead.Load(); h > 0 {
		collect(f.notables, h)
	}
	return out
}

// Find returns the retained record with the given trace ID, or nil. Both
// rings are scanned; the notable ring wins ties (it is never sampled).
func (f *FlightRecorder) Find(id uint64) *RequestRecord {
	for i := range f.notables {
		if rec := f.notables[i].Load(); rec != nil && rec.TraceID == id {
			return rec
		}
	}
	for i := range f.slots {
		if rec := f.slots[i].Load(); rec != nil && rec.TraceID == id {
			return rec
		}
	}
	return nil
}

// Stats reports the recorder's admission counters: records admitted, plain
// records dropped by sampling, and the current 1-in-2^shift sampling shift.
func (f *FlightRecorder) Stats() (recorded, sampledOut uint64, shift int) {
	return f.recorded.Load(), f.sampled.Load(), int(f.sampleShift.Load())
}

// --- active-request registry ------------------------------------------------

// ActiveRequest is one in-flight request as the registry exposes it. Values
// are immutable once registered.
type ActiveRequest struct {
	// TraceID, Endpoint and Query identify the request.
	TraceID  uint64
	Endpoint string
	Query    string
	// Start is when the handler accepted the request.
	Start time.Time
}

// ActiveSet tracks in-flight requests in a fixed array of atomic pointers:
// Begin CAS-claims a free slot, End releases it, Snapshot loads them all.
// Lock-free and allocation-free apart from the caller's ActiveRequest.
type ActiveSet struct {
	slots []atomic.Pointer[ActiveRequest]
	hint  atomic.Uint64
}

// NewActiveSet returns a registry with the given slot capacity (size it to
// the worker pool plus admission queue; requests beyond capacity are simply
// not tracked).
func NewActiveSet(capacity int) *ActiveSet {
	if capacity < 1 {
		capacity = 1
	}
	return &ActiveSet{slots: make([]atomic.Pointer[ActiveRequest], capacity)}
}

// Begin registers an in-flight request and returns its slot token for End.
// Returns -1 (and tracks nothing) when every slot is taken.
func (a *ActiveSet) Begin(req *ActiveRequest) int {
	n := uint64(len(a.slots))
	start := a.hint.Add(1)
	for k := uint64(0); k < n; k++ {
		i := (start + k) % n
		if a.slots[i].CompareAndSwap(nil, req) {
			return int(i)
		}
	}
	return -1
}

// End releases the slot returned by Begin. A -1 token is a no-op.
func (a *ActiveSet) End(token int) {
	if token >= 0 && token < len(a.slots) {
		a.slots[token].Store(nil)
	}
}

// Snapshot returns the currently tracked in-flight requests, oldest first.
func (a *ActiveSet) Snapshot() []*ActiveRequest {
	out := make([]*ActiveRequest, 0, len(a.slots))
	for i := range a.slots {
		if req := a.slots[i].Load(); req != nil {
			out = append(out, req)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Start.Before(out[j-1].Start); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
