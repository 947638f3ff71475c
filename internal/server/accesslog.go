package server

import (
	"io"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/obs"
)

// jsonLogger serializes JSON-lines log records to a writer. One mutex and one
// reused buffer: lines are appended-encoded under the lock so concurrent
// requests never interleave bytes, and steady-state logging allocates nothing
// beyond what the underlying writer does.
type jsonLogger struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
}

func newJSONLogger(w io.Writer) *jsonLogger {
	if w == nil {
		return nil
	}
	return &jsonLogger{w: w}
}

// log appends one record via fn and writes it with a trailing newline.
// Nil-safe: a nil logger drops the record without calling fn.
func (l *jsonLogger) log(fn func(dst []byte) []byte) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = fn(l.buf[:0])
	l.buf = append(l.buf, '\n')
	_, _ = l.w.Write(l.buf)
}

// appendAccessEntry renders rec as one JSON log line (without the newline).
// slow marks a request at or over Options.SlowQuery; stages adds its
// per-stage breakdown and k-means bookkeeping.
func appendAccessEntry(dst []byte, rec *obs.RequestRecord, now time.Time, slow, stages bool) []byte {
	dst = append(dst, `{"ts":"`...)
	dst = now.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","trace":"`...)
	dst = obs.AppendID(dst, rec.TraceID)
	dst = append(dst, `","endpoint":`...)
	dst = appendJSONString(dst, rec.Endpoint)
	dst = append(dst, `,"query":`...)
	dst = appendJSONString(dst, rec.Query)
	if rec.Method != "" {
		dst = append(dst, `,"method":`...)
		dst = appendJSONString(dst, rec.Method)
	}
	if rec.Quality != "" {
		dst = append(dst, `,"quality":`...)
		dst = appendJSONString(dst, rec.Quality)
	}
	dst = append(dst, `,"status":`...)
	dst = strconv.AppendInt(dst, int64(rec.Status), 10)
	dst = append(dst, `,"took_ms":`...)
	dst = appendJSONFloat(dst, float64(rec.Took.Microseconds())/1000)
	if rec.Cache != obs.CacheNone {
		dst = append(dst, `,"cache":`...)
		dst = appendJSONString(dst, rec.Cache.String())
	}
	if rec.Tier > 0 {
		dst = append(dst, `,"tier":`...)
		dst = strconv.AppendInt(dst, int64(rec.Tier), 10)
	}
	if slow {
		dst = append(dst, `,"slow":true`...)
	}
	if stages {
		dst = append(dst, `,"stages":{`...)
		first := true
		for st := 0; st < obs.NumStages; st++ {
			d := rec.Stages[st]
			if d <= 0 {
				continue
			}
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = append(dst, '"')
			dst = append(dst, obs.Stage(st).String()...)
			dst = append(dst, `":`...)
			dst = appendJSONFloat(dst, float64(d.Microseconds())/1000)
		}
		dst = append(dst, '}')
		dst = append(dst, `,"kmeans":{"restarts":`...)
		dst = strconv.AppendInt(dst, int64(rec.KMeansRestarts), 10)
		dst = append(dst, `,"iterations":`...)
		dst = strconv.AppendInt(dst, int64(rec.KMeansIterations), 10)
		dst = append(dst, `,"abandoned":`...)
		dst = strconv.AppendInt(dst, int64(rec.KMeansAbandoned), 10)
		dst = append(dst, '}')
	}
	dst = append(dst, '}')
	return dst
}

// logRequest emits the request's access-log line and, when the request was
// slow, a slow-query line with the full per-stage breakdown — when its
// expansion trace came back (traced); an abandoned one carries none. When
// both logs share a destination the slow breakdown rides inline on the
// access line instead of duplicating it.
func (s *Server) logRequest(rec *obs.RequestRecord, slow, traced bool) {
	if s.accessLog == nil && s.slowLog == nil {
		return
	}
	now := time.Now()
	if s.accessLog != nil {
		stages := traced && slow && s.slowLog == nil
		s.accessLog.log(func(dst []byte) []byte { return appendAccessEntry(dst, rec, now, slow, stages) })
	}
	if slow && s.slowLog != nil {
		s.slowLog.log(func(dst []byte) []byte { return appendAccessEntry(dst, rec, now, true, traced) })
	}
}

// --- log-line encoding ------------------------------------------------------

// The access log, the slow-query log and DumpActive append their lines
// directly into the logger's reused buffer with these two helpers.

const hexDigits = "0123456789abcdef"

// appendJSONString appends a quoted, escaped JSON string, byte-identical to
// encoding/json's default (HTML-escaping) encoder.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"':
				dst = append(dst, '\\', '"')
			case '\\':
				dst = append(dst, '\\', '\\')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Control characters and the HTML-sensitive <, >, & become
				// \u00xx, matching the stdlib's escapeHTML behaviour.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			// Invalid UTF-8 becomes the six-byte escape, matching the
			// stdlib encoder (which writes \ufffd, not the literal rune).
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends a float exactly as encoding/json formats it
// (shortest representation, 'e' form outside [1e-6, 1e21) with a trimmed
// exponent). The logged values are finite by construction.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Trim "e+09" to "e+9", as the stdlib does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
