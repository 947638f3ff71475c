package analysis

import (
	"slices"
	"testing"
)

// runeReferenceTokenize is the tokenizer as first written: the text is
// converted to runes and every term is re-encoded from its rune range. It is
// the slow reference the byte-scanning LetterDigitTokenizer must match.
func runeReferenceTokenize(keepInnerPunct bool, text string) []Token {
	var tokens []Token
	runes := []rune(text)
	n := len(runes)
	pos := 0
	i := 0
	for i < n {
		if !isWordRune(runes[i]) {
			i++
			continue
		}
		start := i
		for i < n {
			if isWordRune(runes[i]) {
				i++
				continue
			}
			if keepInnerPunct && (runes[i] == '-' || runes[i] == '.' || runes[i] == '+') &&
				i+1 < n && isWordRune(runes[i+1]) && i > start {
				i++
				continue
			}
			break
		}
		tokens = append(tokens, Token{Term: string(runes[start:i]), Position: pos})
		pos++
	}
	return tokens
}

// FuzzTokenizeMatchesRuneReference checks that LetterDigitTokenizer, with
// and without inner punctuation, yields the reference's terms and positions
// on arbitrary input, invalid UTF-8 included.
func FuzzTokenizeMatchesRuneReference(f *testing.F) {
	for _, seed := range []string{
		"wp-dc26",
		"model 6000+ and d-link x2",
		"trailing-",
		"a.b. c+ -d",
		"Café naïve façade",
		"Straße Fußball",
		"東京タワー 北京2008",
		"mixed ÀB-é.9+ü",
		"\xff\xfeabc\xc3",      // invalid bytes and a truncated sequence
		"a\xc3-b \xed\xa0\x80", // a surrogate half is invalid UTF-8
		"x\uFFFDy",             // a literal U+FFFD separates too
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		for _, keep := range []bool{true, false} {
			tok := &LetterDigitTokenizer{KeepInnerPunct: keep}
			got, want := tok.Tokenize(text), runeReferenceTokenize(keep, text)
			if len(got) != len(want) {
				t.Fatalf("keep=%t Tokenize(%q) = %q, reference %q", keep, text, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("keep=%t Tokenize(%q) token %d = %+v, reference %+v", keep, text, i, got[i], want[i])
				}
			}
		}
	})
}

// mapUniqueTerms is UniqueTerms as first written, de-duplicating through a
// map: the reference the TermSet version must match.
func mapUniqueTerms(a *Analyzer, text string) []string {
	toks := a.Analyze(text)
	seen := make(map[string]struct{}, len(toks))
	var terms []string
	for _, t := range toks {
		if _, ok := seen[t.Term]; ok {
			continue
		}
		seen[t.Term] = struct{}{}
		terms = append(terms, t.Term)
	}
	return terms
}

// FuzzUniqueTermsMatchesMapReference checks that UniqueTerms yields the map
// reference's terms in the same order, on texts with fewer and more distinct
// terms than the linear scan holds.
func FuzzUniqueTermsMatchesMapReference(f *testing.F) {
	for _, seed := range []string{
		"",
		"camera camera lens camera lens body",
		"a b c d e f g h a b c d e f g h",
		"one two three four five six seven eight nine one nine ten two",
		"Brand:Canon brand:canon model:6000 brand:Canon",
		"running runs ran runner running Runs",
	} {
		f.Add(seed)
	}
	analyzers := []*Analyzer{Standard(), Simple()}
	f.Fuzz(func(t *testing.T, text string) {
		for _, a := range analyzers {
			if got, want := a.UniqueTerms(text), mapUniqueTerms(a, text); !slices.Equal(got, want) {
				t.Fatalf("UniqueTerms(%q) = %q, want %q", text, got, want)
			}
		}
	})
}
