package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	qec "repro"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// newExpandResponse is the reference form of a 200 /expand body: the whole
// ExpandResponse, built directly, for encoding/json to encode in one go.
func newExpandResponse(exp *qec.Expansion, tookMS float64) *ExpandResponse {
	return &ExpandResponse{ExpansionWire: newExpansionWire(exp), TookMS: tookMS}
}

// encodeReference is what writeJSON would write for resp.
func encodeReference(t testing.TB, resp *ExpandResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// expandBody is one encodeExpand call on s.
func expandBody(t testing.TB, s *Server, exp *qec.Expansion, tookMS float64, degraded int, debug *ExpandDebug, explain *qec.Explain) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.encodeExpand(&buf, exp, tookMS, degraded, debug, explain); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tookOf reads a body's took_ms back, so a served body can be compared with
// the reference encoding of the same value.
func tookOf(t testing.TB, body []byte) float64 {
	t.Helper()
	var v struct {
		TookMS float64 `json:"took_ms"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	return v.TookMS
}

// TestExpandWire pins every 200 /expand body byte for byte to encoding/json
// of the whole ExpandResponse: for every Table 1 query × k 2–4 × {iskr, pebc}
// on both datasets, the first write of an expansion (a memo miss) and a later
// one (a memo hit), at took_ms values on both sides of encoding/json's
// exponent thresholds and every degraded tier below shedding, then with the
// debug and explain sections (an explained expansion is never memoized). Before that, the same request is served
// through the handler twice, a computation and then a cache hit.
func TestExpandWire(t *testing.T) {
	for _, d := range []*dataset.Dataset{dataset.Wikipedia(3, 1), dataset.Shopping(3, 1)} {
		t.Run(d.Name, func(t *testing.T) {
			eng := qec.NewEngineFromIndex(d.Index, qec.WithSeed(7), qec.WithExpansionCache(1024))
			s := New(eng, Options{})
			h := s.Handler()
			for _, q := range d.Queries {
				for k := 2; k <= 4; k++ {
					for _, m := range []qec.Method{qec.ISKR, qec.PEBC} {
						checkExpandWire(t, eng, s, h, q.Raw, qec.ExpandOptions{K: k, Method: m})
					}
				}
			}
		})
	}
}

func checkExpandWire(t *testing.T, eng *qec.Engine, s *Server, h http.Handler, raw string, opts qec.ExpandOptions) {
	t.Helper()
	name := fmt.Sprintf("%q k=%d %s", raw, opts.K, opts.Method)
	// Served: the first request computes, the second is a cache hit.
	for i, want := range []string{"computed", "hit"} {
		body := fmt.Sprintf(`{"query":%q,"k":%d,"method":%q}`, raw, opts.K, strings.ToLower(opts.Method.String()))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/expand", strings.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("%s request %d: status %d: %s", name, i, rec.Code, rec.Body.Bytes())
		}
		exp, ok := eng.ExpandCached(raw, opts)
		if !ok {
			t.Fatalf("%s: not cached after a 200", name)
		}
		got := rec.Body.Bytes()
		if ref := encodeReference(t, newExpandResponse(exp, tookOf(t, got))); !bytes.Equal(got, ref) {
			t.Fatalf("%s: %s body differs from encoding/json:\n got %s\nwant %s", name, want, got, ref)
		}
	}

	exp, err := eng.Expand(raw, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	tr := obs.GetTrace()
	defer obs.PutTrace(tr)
	tr.ID = 0xfeed
	tr.MarkCache(obs.CacheHit)
	_, ex, err := eng.ExpandExplained(context.Background(), raw, opts, nil)
	if err != nil {
		t.Fatalf("%s: explain: %v", name, err)
	}
	type variant struct {
		took     float64
		degraded int
		debug    *ExpandDebug
		explain  *qec.Explain
	}
	var variants []variant
	for _, took := range []float64{0, 1e-7, 1e21} {
		for degraded := 0; degraded <= 3; degraded++ {
			variants = append(variants, variant{took: took, degraded: degraded})
		}
	}
	debug := newExpandDebug(tr)
	variants = append(variants, variant{1e-7, 2, debug, nil}, variant{1e21, 0, nil, ex}, variant{0, 3, debug, ex})
	for _, v := range variants {
		ref := newExpandResponse(exp, v.took)
		ref.Degraded, ref.Debug, ref.Explain = v.degraded, v.debug, v.explain
		want := encodeReference(t, ref)
		s.wireMemo.Remove(exp)
		for _, leg := range []string{"miss", "hit"} {
			if got := expandBody(t, s, exp, v.took, v.degraded, v.debug, v.explain); !bytes.Equal(got, want) {
				t.Fatalf("%s took=%v degraded=%d: memo %s differs from encoding/json:\n got %s\nwant %s",
					name, v.took, v.degraded, leg, got, want)
			}
		}
		if _, ok := s.wireMemo.Peek(exp); ok != (v.explain == nil) {
			t.Fatalf("%s explain=%t: memoized = %t", name, v.explain != nil, ok)
		}
	}
}

// TestExpandWireWithoutCache: with no engine cache there is no memo, and
// every body is still encoding/json's.
func TestExpandWireWithoutCache(t *testing.T) {
	eng := ambiguousEngine(t)
	s := New(eng, Options{})
	if s.wireMemo != nil {
		t.Fatal("a server over an uncached engine built a wire memo")
	}
	exp, err := eng.Expand("apple", qec.ExpandOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got := expandBody(t, s, exp, 0.25, 1, nil, nil)
		ref := newExpandResponse(exp, 0.25)
		ref.Degraded = 1
		if want := encodeReference(t, ref); !bytes.Equal(got, want) {
			t.Fatalf("body %d differs from encoding/json:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestPoisonedExpansionReachesClient: the fault injector's poisoned copy is
// a new pointer, so once its pristine original has been memoized a poisoned
// response still carries the flipped byte, and the next pristine response
// is the original again.
func TestPoisonedExpansionReachesClient(t *testing.T) {
	eng := ambiguousEngine(t, qec.WithExpansionCache(16))
	inj := faultinject.Wrap(eng, faultinject.Plan{PoisonEvery: 2})
	ts := httptest.NewServer(New(inj, Options{}).Handler())
	defer ts.Close()
	req := ExpandRequest{Query: "apple", K: 2}
	var answers [3]ExpansionWire
	for i := range answers {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/expand", req)
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, data)
		}
		answers[i] = decode[ExpandResponse](t, data).ExpansionWire
	}
	if inj.Counts().Poisons != 1 {
		t.Fatalf("poisons = %d, want 1", inj.Counts().Poisons)
	}
	pristine, poisoned := answers[0], answers[1]
	if reflect.DeepEqual(poisoned, pristine) {
		t.Fatal("the poisoned response equals the memoized pristine one: the fault was masked")
	}
	a, b := pristine.Queries[0].Terms[0], poisoned.Queries[0].Terms[0]
	if len(a) == 0 || len(a) != len(b) || a[0]^b[0] != 0x01 || a[1:] != b[1:] {
		t.Fatalf("first term %q was not poisoned to %q by one flipped bit", a, b)
	}
	if !reflect.DeepEqual(answers[2], pristine) {
		t.Fatalf("after the poisoned response the pristine answer changed:\n got %+v\nwant %+v", answers[2], pristine)
	}
}

// TestWireMemoUnderEviction runs 8 goroutines against a 4-entry engine cache
// (and so a 4-entry memo) over more distinct requests than it holds, so
// entries keep being evicted and recomputed under the memo: every body must
// decode to its request's expansion.
func TestWireMemoUnderEviction(t *testing.T) {
	eng := ambiguousEngine(t, qec.WithExpansionCache(4))
	h := New(eng, Options{}).Handler()
	type def struct {
		body string
		want ExpansionWire
	}
	var defs []def
	for _, q := range []string{"apple", "apple fruit", "apple company", "fruit"} {
		for k := 1; k <= 3; k++ {
			for _, m := range []qec.Method{qec.ISKR, qec.PEBC} {
				exp, err := eng.Expand(q, qec.ExpandOptions{K: k, Method: m})
				if err != nil {
					t.Fatalf("%q k=%d %s: %v", q, k, m, err)
				}
				defs = append(defs, def{
					body: fmt.Sprintf(`{"query":%q,"k":%d,"method":%q}`, q, k, strings.ToLower(m.String())),
					want: newExpansionWire(exp),
				})
			}
		}
	}
	const workers, perWorker = 8, 60
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				d := defs[(g*7+i*5)%len(defs)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/expand", strings.NewReader(d.body)))
				if rec.Code != 200 {
					errs <- fmt.Errorf("%s: status %d: %s", d.body, rec.Code, rec.Body.Bytes())
					return
				}
				var got ExpandResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					errs <- fmt.Errorf("%s: %v", d.body, err)
					return
				}
				if !reflect.DeepEqual(got.ExpansionWire, d.want) {
					errs <- fmt.Errorf("%s: body decodes to\n%+v\nwant\n%+v", d.body, got.ExpansionWire, d.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if ev := eng.CacheStats().Evictions; ev == 0 {
		t.Fatal("the engine cache never evicted: the test did not exercise eviction")
	}
}
