package server

import (
	"encoding/json"
	"math"
	"testing"
)

// TestAppendJSONMatchesStdlib pins the log-line helpers byte-identical to
// encoding/json: HTML escaping, control characters, U+2028/U+2029, invalid
// UTF-8 and float formatting on both sides of the 'e'-form thresholds. Log
// lines carry client-supplied queries, so the escaping must hold for any
// input.
func TestAppendJSONMatchesStdlib(t *testing.T) {
	strs := []string{
		"",
		"plain",
		"piè café",
		`<b>&"escape\n` + "\u2028\u2029" + `"</b>`,
		"tab\tcr\rnl\nbell\x07 del\x7f",
		"invalid \xff utf8 \xc3 tail",
	}
	for _, s := range strs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); string(got) != string(want) {
			t.Errorf("string %q: got %s, want %s", s, got, want)
		}
	}
	floats := []float64{0, 1, -1.5, 0.123, 2.0 / 3.0, 1e-6, 9.99e-7, 1e20, 1e21, -1e21,
		math.SmallestNonzeroFloat64, math.MaxFloat64}
	for _, f := range floats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); string(got) != string(want) {
			t.Errorf("float %v: got %s, want %s", f, got, want)
		}
	}
}
