package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	qec "repro"
	"repro/internal/dataset"
)

// serveWire sends one POST through h (recorder, no sockets) and fails the
// benchmark on any status but 200.
func serveWire(b *testing.B, h http.Handler, path, body string) {
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
}

// benchWire drives one endpoint through the handler directly with a warm
// expansion cache, so the measured cost is the wire layer — decode,
// dispatch, encode — not the expansion pipeline or the HTTP client. The
// allocs/op of these benches is what the pooled request/response buffers
// exist to keep down.
func benchWire(b *testing.B, path, body string) {
	eng := ambiguousEngine(b, qec.WithExpansionCache(64))
	h := New(eng, Options{}).Handler()
	serveWire(b, h, path, body) // populate the expansion cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveWire(b, h, path, body)
	}
}

func BenchmarkWireExpandCached(b *testing.B) {
	benchWire(b, "/expand", `{"query":"apple","k":2}`)
}

func BenchmarkWireSearch(b *testing.B) {
	benchWire(b, "/search", `{"query":"apple","top_k":5}`)
}

// BenchmarkWireExpandHot is the expand-hot workload at the handler:
// qec-serve's default corpus (Wikipedia, dataset seed 2012, engine seed 2011)
// at scale 4 with its default 1024-entry cache, warmed with the 60 distinct
// requests of every Table 1 query × k 2–4 × {iskr, pebc}, then cycled
// through them. Every op is a cache hit whose large all-results clusters the
// handler writes.
func BenchmarkWireExpandHot(b *testing.B) {
	d := dataset.Wikipedia(2012, 4)
	eng := qec.NewEngineFromIndex(d.Index, qec.WithSeed(2011), qec.WithExpansionCache(1024))
	h := New(eng, Options{}).Handler()
	var bodies []string
	for _, q := range d.Queries {
		for k := 2; k <= 4; k++ {
			for _, m := range []string{"iskr", "pebc"} {
				bodies = append(bodies, fmt.Sprintf(`{"query":%q,"k":%d,"method":%q}`, q.Raw, k, m))
			}
		}
	}
	if len(bodies) != 60 {
		b.Fatalf("%d distinct requests, want 60", len(bodies))
	}
	for _, body := range bodies {
		serveWire(b, h, "/expand", body)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveWire(b, h, "/expand", bodies[i%len(bodies)])
	}
}
