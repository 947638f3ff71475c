// GET /debug/requests — the flight recorder's introspection surface.
//
//	GET /debug/requests                 → last-N completed requests + in-flight
//	GET /debug/requests?n=20            → at most 20 records
//	GET /debug/requests?endpoint=expand → only /expand records
//	GET /debug/requests?min_ms=50       → only requests that took ≥ 50ms
//	GET /debug/requests?outcome=timeout → only that terminal outcome
//	GET /debug/requests/{trace_id}      → one retained record by trace ID
//
// Records come from a fixed-capacity lock-free ring: under load, fast
// successful requests are sampled, but slow/error/aborted requests are always
// retained (a dedicated notable ring shields them from eviction by fast
// traffic). The response's sampling section reports how much was shed.
package server

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// debugDefaultN bounds how many records an unparameterized listing returns.
const debugDefaultN = 50

func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	s.total.Add(1)
	if !s.allowMethod(w, r, http.MethodGet) {
		return
	}
	q := r.URL.Query()
	n := debugDefaultN
	if raw := q.Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			s.writeError(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
		n = v
	}
	endpoint := q.Get("endpoint")
	var minTook time.Duration
	if raw := q.Get("min_ms"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v < 0 {
			s.writeError(w, http.StatusBadRequest, "min_ms must be a non-negative number")
			return
		}
		minTook = time.Duration(v * float64(time.Millisecond))
	}
	var wantOutcome obs.Outcome
	filterOutcome := false
	if raw := q.Get("outcome"); raw != "" {
		o, ok := obs.ParseOutcome(raw)
		if !ok {
			s.writeError(w, http.StatusBadRequest, "unknown outcome "+strconv.Quote(raw))
			return
		}
		wantOutcome, filterOutcome = o, true
	}

	resp := DebugRequestsResponse{Records: []FlightRecordWire{}}
	// Snapshot everything retained, filter, then trim to n — a filter must
	// not shrink the candidate set before it runs.
	for _, rec := range s.flight.Snapshot(0) {
		if endpoint != "" && rec.Endpoint != endpoint {
			continue
		}
		if rec.Took < minTook {
			continue
		}
		if filterOutcome && rec.Outcome != wantOutcome {
			continue
		}
		resp.Records = append(resp.Records, newFlightRecordWire(rec))
		if len(resp.Records) >= n {
			break
		}
	}
	resp.Count = len(resp.Records)
	now := time.Now()
	for _, req := range s.active.Snapshot() {
		resp.Active = append(resp.Active, ActiveRequestWire{
			Trace:    obs.IDString(req.TraceID),
			Endpoint: req.Endpoint,
			Query:    req.Query,
			AgeMS:    float64(now.Sub(req.Start).Microseconds()) / 1000,
		})
	}
	recorded, dropped, shift := s.flight.Stats()
	resp.Sampling = SamplingStats{Recorded: recorded, Dropped: dropped, Shift: shift}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDebugRequest(w http.ResponseWriter, r *http.Request) {
	s.total.Add(1)
	if !s.allowMethod(w, r, http.MethodGet) {
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/debug/requests/")
	id, ok := obs.ParseID(raw)
	if !ok {
		s.writeError(w, http.StatusBadRequest, "trace id must be 16 hex digits")
		return
	}
	rec := s.flight.Find(id)
	if rec == nil {
		s.writeError(w, http.StatusNotFound, "no retained record for trace "+raw)
		return
	}
	wire := newFlightRecordWire(rec)
	s.writeJSON(w, http.StatusOK, &wire)
}

// newFlightRecordWire converts one retained record to its wire form.
func newFlightRecordWire(rec *obs.RequestRecord) FlightRecordWire {
	wire := FlightRecordWire{
		Trace:    obs.IDString(rec.TraceID),
		Endpoint: rec.Endpoint,
		Query:    rec.Query,
		Method:   rec.Method,
		Quality:  rec.Quality,
		Status:   rec.Status,
		Outcome:  rec.Outcome.String(),
		Start:    rec.Start.UTC(),
		TookMS:   float64(rec.Took.Microseconds()) / 1000,
		Notable:  rec.Notable,
		Tier:     rec.Tier,
		Stages:   stageTimings(rec),
	}
	if rec.Cache != obs.CacheNone {
		wire.Cache = rec.Cache.String()
	}
	if rec.KMeansRestarts > 0 {
		wire.KMeans = &KMeansDebug{
			Restarts:   rec.KMeansRestarts,
			Iterations: rec.KMeansIterations,
			Abandoned:  rec.KMeansAbandoned,
		}
	}
	return wire
}
