package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// loader drives one server over loopback HTTP in a closed loop and checks
// every response against the reference answers.
type loader struct {
	client *http.Client
	base   string
	defs   []reqDef
	// mu guards canon, scores and failures. canon holds, per distinct
	// request, its first verified response body with took_ms cut out; later
	// responses must equal it byte for byte. scores holds each distinct
	// request's verified answer score.
	mu       sync.Mutex
	canon    [][]byte
	scores   []float64
	failures []string
}

func newLoader(base string, defs []reqDef, conns int) *loader {
	return &loader{
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		base:   base,
		defs:   defs,
		canon:  make([][]byte, len(defs)),
		scores: make([]float64, len(defs)),
	}
}

func (l *loader) close() { l.client.CloseIdleConnections() }

// send issues request i and returns its round trip and whether it passed the
// output checks: status 200, served undegraded (no "degraded" field and tier
// T0 where the endpoint stamps one), and equal to the reference answer.
func (l *loader) send(i int, buf *bytes.Buffer) (time.Duration, bool) {
	def := &l.defs[i]
	start := time.Now()
	resp, err := l.client.Post(l.base+def.path, "application/json", bytes.NewReader(def.body))
	if err != nil {
		l.fail("%s %q: %v", def.path, def.raw, err)
		return time.Since(start), false
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	took := time.Since(start)
	switch {
	case err != nil:
		l.fail("%s %q: read body: %v", def.path, def.raw, err)
	case resp.StatusCode != http.StatusOK:
		l.fail("%s %q: status %d: %s", def.path, def.raw, resp.StatusCode, buf.Bytes())
	case tierOf(resp) != "T0":
		l.fail("%s %q: served degraded at tier %s", def.path, def.raw, tierOf(resp))
	default:
		return took, l.check(i, buf.Bytes())
	}
	return took, false
}

// tierOf is the degradation tier the server stamped; /search is not
// admission-controlled and stamps none, which counts as undegraded.
func tierOf(resp *http.Response) string {
	if t := resp.Header.Get("X-Qec-Tier"); t != "" {
		return t
	}
	return "T0"
}

// check compares a 200 body with the reference answer.
func (l *loader) check(i int, body []byte) bool {
	stripped := stripTook(body)
	l.mu.Lock()
	c := l.canon[i]
	l.mu.Unlock()
	if c != nil {
		if !bytes.Equal(c, stripped) {
			l.fail("%s %q: response differs from its first verified copy", l.defs[i].path, l.defs[i].raw)
			return false
		}
		return true
	}
	got, err := decodeAnswer(l.defs[i].path, body)
	if err != nil {
		l.fail("%s %q: %v", l.defs[i].path, l.defs[i].raw, err)
		return false
	}
	if !reflect.DeepEqual(got, l.defs[i].want) {
		l.fail("%s %q: answer differs from the in-process reference:\n got %+v\nwant %+v",
			l.defs[i].path, l.defs[i].raw, got, l.defs[i].want)
		return false
	}
	l.mu.Lock()
	l.canon[i], l.scores[i] = stripped, got.score()
	l.mu.Unlock()
	return true
}

// decodeAnswer parses a response body into its comparable form, rejecting a
// degraded expansion.
func decodeAnswer(path string, body []byte) (answer, error) {
	if path == "/search" {
		var r server.SearchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return answer{}, err
		}
		return answer{Hits: r.Hits}, nil
	}
	var r server.ExpandResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return answer{}, err
	}
	if r.Degraded != 0 {
		return answer{}, fmt.Errorf("served degraded (degraded=%d)", r.Degraded)
	}
	return answer{Original: r.Original, Queries: r.Queries, Clusters: r.Clusters, Score: r.Score}, nil
}

// stripTook returns body without its "took_ms" member, the one part of a
// response that legitimately differs between two identical requests.
func stripTook(body []byte) []byte {
	const key = `"took_ms":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return bytes.Clone(body)
	}
	j := i + len(key)
	for j < len(body) && body[j] != ',' && body[j] != '}' {
		j++
	}
	out := append([]byte{}, body[:i]...)
	return append(out, body[j:]...)
}

// maxFailures bounds the failure messages kept; the count is in the phase.
const maxFailures = 50

func (l *loader) fail(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.failures) < maxFailures {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

// phase is the outcome of sending one request sequence.
type phase struct {
	sent, ok int
	wall     time.Duration
	// lat holds each request's round trip, in sequence order.
	lat []time.Duration
}

// run sends seq over conns connections in a closed loop: each connection
// sends its next request as soon as its previous one has completed.
func (l *loader) run(seq []int, conns int) phase {
	p := phase{sent: len(seq), lat: make([]time.Duration, len(seq))}
	var next, ok atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				n := int(next.Add(1)) - 1
				if n >= len(seq) {
					return
				}
				took, good := l.send(seq[n], &buf)
				p.lat[n] = took
				if good {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.ok = int(ok.Load())
	return p
}

// warm sends every distinct request once, in order, over one connection:
// it verifies each against its reference, fills canon, and warms the
// server's connections, caches and heap before anything is timed.
func (l *loader) warm() phase {
	seq := make([]int, len(l.defs))
	for i := range seq {
		seq[i] = i
	}
	return l.run(seq, 1)
}

// meanScore is the mean answer score over the distinct requests.
func (l *loader) meanScore() float64 {
	var s float64
	for _, v := range l.scores {
		s += v
	}
	return s / float64(len(l.scores))
}
