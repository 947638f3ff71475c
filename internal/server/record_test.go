package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	qec "repro"
	"repro/internal/degrade"
	"repro/internal/obs"
)

// exitEngine routes each expansion by its query: "hold" blocks until
// released (a wedged computation that ignores its context), "wait" blocks
// until its context ends, and any other query runs.
type exitEngine struct {
	*qec.Engine
	entered chan string
	release chan struct{}
}

func (e *exitEngine) ExpandTraced(ctx context.Context, raw string, opts qec.ExpandOptions, tr *obs.Trace) (*qec.Expansion, error) {
	switch raw {
	case "hold":
		release := e.release
		e.entered <- raw
		<-release
	case "wait":
		e.entered <- raw
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return e.Engine.ExpandTraced(ctx, raw, opts, tr)
}

// serveOne sends one request through h with a recorder, under ctx.
func serveOne(ctx context.Context, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)).WithContext(ctx))
	return rec
}

// TestEveryExitLoggedAndRecordedOnce drives every exit of /expand and
// /search and checks that each request leaves exactly one access-log line
// and one flight record, and that line, record and response agree on the
// trace ID and the status.
func TestEveryExitLoggedAndRecordedOnce(t *testing.T) {
	eng := &exitEngine{
		Engine:  ambiguousEngine(t, qec.WithExpansionCache(16)),
		entered: make(chan string, 1),
		release: make(chan struct{}),
	}
	logBuf := newSyncBuffer()
	srv := New(eng, Options{
		MaxConcurrent:  1,
		RequestTimeout: 300 * time.Millisecond,
		MaxBodyBytes:   64,
		AccessLog:      logBuf,
		Degrade:        true,
	})
	h := srv.Handler()
	bg := context.Background()

	type served struct {
		name string
		want int
		rec  *httptest.ResponseRecorder
	}
	var all []served
	check := func(name string, want int, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != want {
			t.Fatalf("%s: status %d, want %d (body %s)", name, rec.Code, want, rec.Body.Bytes())
		}
		all = append(all, served{name, want, rec})
	}
	do := func(name string, want int, method, path, body string) {
		t.Helper()
		check(name, want, serveOne(bg, h, method, path, body))
	}

	for _, path := range []string{"/expand", "/search"} {
		do(path+" 405", http.StatusMethodNotAllowed, "GET", path, "")
		do(path+" malformed body", http.StatusBadRequest, "POST", path, `{"query":`)
		do(path+" body too large", http.StatusRequestEntityTooLarge, "POST", path,
			`{"query":"`+strings.Repeat("apple ", 20)+`"}`)
		do(path+" empty query", http.StatusBadRequest, "POST", path, `{"query":"  "}`)
	}
	do("/expand bad options", http.StatusBadRequest, "POST", "/expand", `{"query":"apple","method":"magic"}`)
	do("/expand no results", http.StatusNotFound, "POST", "/expand", `{"query":"zzznope"}`)
	do("/expand computed", http.StatusOK, "POST", "/expand", `{"query":"apple","k":2}`)
	do("/search ok", http.StatusOK, "POST", "/search", `{"query":"apple"}`)

	// "hold" takes the only worker and overruns its deadline (504); a
	// request queued behind it never gets a worker (503).
	held := make(chan *httptest.ResponseRecorder)
	go func() { held <- serveOne(bg, h, "POST", "/expand", `{"query":"hold"}`) }()
	<-eng.entered
	do("/expand saturated", http.StatusServiceUnavailable, "POST", "/expand", `{"query":"apple","k":2}`)
	check("/expand deadline", http.StatusGatewayTimeout, <-held)
	close(eng.release)

	// The client walks away while its expansion runs.
	ctx, cancel := context.WithCancel(bg)
	gone := make(chan *httptest.ResponseRecorder)
	go func() { gone <- serveOne(ctx, h, "POST", "/expand", `{"query":"wait"}`) }()
	<-eng.entered
	cancel()
	check("/expand client closed", statusClientClosedRequest, <-gone)

	srv.ctrl.Step(degrade.Signals{Queued: 24, Capacity: 8}) // pressure 3: T3
	do("/expand T3 hit", http.StatusOK, "POST", "/expand", `{"query":"apple","k":2}`)
	srv.ctrl.Step(degrade.Signals{Queued: 40, Capacity: 8}) // pressure 5: T4
	do("/expand T4 shed", http.StatusServiceUnavailable, "POST", "/expand", `{"query":"apple","k":2}`)

	srv.draining.Store(true)
	do("/expand draining", http.StatusServiceUnavailable, "POST", "/expand", `{"query":"apple"}`)
	do("/search draining", http.StatusServiceUnavailable, "POST", "/search", `{"query":"apple"}`)

	lines := map[string][]map[string]any{}
	text := strings.TrimSpace(logBuf.String())
	for _, ln := range strings.Split(text, "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, ln)
		}
		id, _ := m["trace"].(string)
		lines[id] = append(lines[id], m)
	}
	if n := strings.Count(text, "\n") + 1; n != len(all) {
		t.Errorf("%d access-log lines for %d requests", n, len(all))
	}
	if recorded, dropped, _ := srv.flight.Stats(); recorded != uint64(len(all)) || dropped != 0 {
		t.Errorf("flight recorder admitted %d and dropped %d of %d requests", recorded, dropped, len(all))
	}
	for _, sv := range all {
		hdr := sv.rec.Header().Get("X-Trace-Id")
		id, ok := obs.ParseID(hdr)
		if !ok {
			t.Errorf("%s: X-Trace-Id %q", sv.name, hdr)
			continue
		}
		if got := lines[hdr]; len(got) != 1 || got[0]["status"] != float64(sv.want) {
			t.Errorf("%s: access-log lines for trace %s = %v, want one with status %d", sv.name, hdr, got, sv.want)
		}
		if rec := srv.flight.Find(id); rec == nil || rec.Status != sv.want {
			t.Errorf("%s: flight record for trace %s = %+v, want status %d", sv.name, hdr, rec, sv.want)
		}
	}
}

// TestAbandonedExpandsLeakNoGoroutines checks that /expand requests which
// end without an answer — cancelled by the client, timed out, shed at T4,
// rejected as saturated, rejected while draining — leave no goroutine
// behind: after each, runtime.NumGoroutine returns to its value before it.
func TestAbandonedExpandsLeakNoGoroutines(t *testing.T) {
	eng := &exitEngine{
		Engine:  ambiguousEngine(t, qec.WithExpansionCache(16)),
		entered: make(chan string, 1),
	}
	srv := New(eng, Options{MaxConcurrent: 1, RequestTimeout: 200 * time.Millisecond, Degrade: true})
	h := srv.Handler()
	bg := context.Background()
	expand := func(ctx context.Context, query string) int {
		return serveOne(ctx, h, "POST", "/expand", `{"query":"`+query+`"}`).Code
	}
	// Warm up, so whatever the engine starts once is running before the
	// first count.
	if code := expand(bg, "apple"); code != http.StatusOK {
		t.Fatalf("warm-up status %d", code)
	}
	holdWorker := func(body func()) {
		eng.release = make(chan struct{})
		held := make(chan int)
		go func() { held <- expand(bg, "hold") }()
		<-eng.entered
		body()
		if code := <-held; code != http.StatusGatewayTimeout {
			t.Errorf("held request: status %d, want 504", code)
		}
		close(eng.release)
	}
	cases := []struct {
		name string
		run  func()
	}{
		{"client cancel", func() {
			ctx, cancel := context.WithCancel(bg)
			gone := make(chan int)
			go func() { gone <- expand(ctx, "wait") }()
			<-eng.entered
			cancel()
			if code := <-gone; code != statusClientClosedRequest {
				t.Errorf("status %d, want 499", code)
			}
		}},
		{"timeout", func() { holdWorker(func() {}) }},
		{"saturated", func() {
			holdWorker(func() {
				if code := expand(bg, "apple"); code != http.StatusServiceUnavailable {
					t.Errorf("status %d, want 503", code)
				}
			})
		}},
		{"shed", func() {
			srv.ctrl.Step(degrade.Signals{Queued: 40, Capacity: 8})
			if code := expand(bg, "apple"); code != http.StatusServiceUnavailable {
				t.Errorf("status %d, want 503", code)
			}
		}},
		{"draining", func() {
			srv.draining.Store(true)
			if code := expand(bg, "apple"); code != http.StatusServiceUnavailable {
				t.Errorf("status %d, want 503", code)
			}
		}},
	}
	for _, tc := range cases {
		base := runtime.NumGoroutine()
		tc.run()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				var dump strings.Builder
				pprof.Lookup("goroutine").WriteTo(&dump, 1)
				t.Fatalf("%s: %d goroutines, %d before it:\n%s", tc.name, runtime.NumGoroutine(), base, dump.String())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
