// Package analysis implements the text-analysis pipeline used by the search
// substrate: tokenization, lowercasing, stopword removal and Porter stemming.
//
// The paper models a text document as a set of words and a structured
// document as a set of (entity:attribute:value) triplets. The analyzer turns
// raw text into the normalized term stream from which those sets are built.
package analysis

import (
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a single unit produced by the tokenizer. Position is the ordinal
// position of the token in the input stream (0-based) and is preserved across
// filters that drop tokens, so downstream consumers can detect gaps.
type Token struct {
	Term     string
	Position int
}

// Tokenizer splits raw text into tokens.
type Tokenizer interface {
	Tokenize(text string) []Token
}

// LetterDigitTokenizer splits on any rune that is neither a letter nor a
// digit. Runs of letters/digits become tokens; everything else is a
// separator. It additionally keeps '-' and '.' inside tokens when both
// neighbours are alphanumeric, so product names such as "wp-dc26" and model
// numbers like "6000+" tokenize the way the shopping dataset expects.
type LetterDigitTokenizer struct {
	// KeepInnerPunct preserves '-' '.' '+' between alphanumerics
	// ("wp-dc26", "d-link", "x2"). Defaults to true via NewTokenizer.
	KeepInnerPunct bool
}

// NewTokenizer returns the default tokenizer used throughout the system.
func NewTokenizer() *LetterDigitTokenizer {
	return &LetterDigitTokenizer{KeepInnerPunct: true}
}

func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// wordAt reports whether the rune that starts at text[i] is a letter or a
// digit, and its width in bytes. ASCII is tested directly; anything else is
// decoded, and an invalid byte decodes to utf8.RuneError (width 1), which is
// neither, so it separates tokens.
func wordAt(text string, i int) (bool, int) {
	if c := text[i]; c < utf8.RuneSelf {
		return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9', 1
	}
	r, size := utf8.DecodeRuneInString(text[i:])
	return isWordRune(r), size
}

// Tokenize implements Tokenizer. Each term is a substring of text, so the
// only allocation is the token slice.
func (t *LetterDigitTokenizer) Tokenize(text string) []Token {
	var tokens []Token
	n := len(text)
	for i := 0; i < n; {
		start := i
		word, size := wordAt(text, i)
		i += size
		if !word {
			continue
		}
		for i < n {
			if word, size := wordAt(text, i); word {
				i += size
				continue
			}
			if c := text[i]; t.KeepInnerPunct && (c == '-' || c == '.' || c == '+') && i+1 < n {
				if next, _ := wordAt(text, i+1); next {
					i++
					continue
				}
			}
			break
		}
		tokens = append(tokens, Token{Term: text[start:i], Position: len(tokens)})
	}
	return tokens
}

// TokenFilter transforms a token stream. Filters may drop tokens (return the
// zero Token and false) or rewrite terms.
type TokenFilter interface {
	Filter(tok Token) (Token, bool)
}

// LowercaseFilter maps every term to lower case.
type LowercaseFilter struct{}

// Filter implements TokenFilter.
func (LowercaseFilter) Filter(tok Token) (Token, bool) {
	tok.Term = strings.ToLower(tok.Term)
	return tok, true
}

// MinLengthFilter drops tokens shorter than Min runes.
type MinLengthFilter struct{ Min int }

// Filter implements TokenFilter.
func (f MinLengthFilter) Filter(tok Token) (Token, bool) {
	if len([]rune(tok.Term)) < f.Min {
		return Token{}, false
	}
	return tok, true
}

// Analyzer is a tokenizer followed by a filter chain.
type Analyzer struct {
	tokenizer Tokenizer
	filters   []TokenFilter
}

// NewAnalyzer builds an analyzer from a tokenizer and an ordered filter
// chain.
func NewAnalyzer(tok Tokenizer, filters ...TokenFilter) *Analyzer {
	return &Analyzer{tokenizer: tok, filters: filters}
}

// Standard returns the analyzer configuration used for the Wikipedia-style
// prose corpus: letter/digit tokenizer, lowercase, stopwords, Porter stemmer.
func Standard() *Analyzer {
	return NewAnalyzer(NewTokenizer(),
		LowercaseFilter{},
		NewStopwordFilter(DefaultStopwords()),
		NewStemFilter(),
	)
}

// Simple returns an analyzer without stemming, used for structured shopping
// data where feature values ("camcorders", "8gb", "ddr3") must round-trip
// exactly between indexing and query expansion output.
func Simple() *Analyzer {
	return NewAnalyzer(NewTokenizer(),
		LowercaseFilter{},
		NewStopwordFilter(DefaultStopwords()),
	)
}

// Analyze runs the full pipeline over text and returns the surviving tokens.
func (a *Analyzer) Analyze(text string) []Token {
	toks := a.tokenizer.Tokenize(text)
	out := toks[:0]
	for _, tok := range toks {
		keep := true
		for _, f := range a.filters {
			tok, keep = f.Filter(tok)
			if !keep {
				break
			}
		}
		if keep && tok.Term != "" {
			out = append(out, tok)
		}
	}
	return out
}

// Terms is a convenience wrapper returning just the normalized term strings.
func (a *Analyzer) Terms(text string) []string {
	toks := a.Analyze(text)
	terms := make([]string, len(toks))
	for i, t := range toks {
		terms[i] = t.Term
	}
	return terms
}

// UniqueTerms returns the distinct normalized terms of text, in first-seen
// order. The paper models a document as a *set* of words; this is the
// set-construction step.
func (a *Analyzer) UniqueTerms(text string) []string {
	var seen TermSet
	var terms []string
	for _, t := range a.Analyze(text) {
		if seen.Add(t.Term) {
			terms = append(terms, t.Term)
		}
	}
	return terms
}

// linearSetMax is the most keys a TermSet checks by linear scan. A query
// rarely has more terms, so de-duplicating one builds no map; a longer text
// moves its keys into a map, so its cost stays linear, not quadratic.
const linearSetMax = 8

// TermSet is the set that de-duplicates terms in first-seen order. The zero
// value is an empty set.
type TermSet struct {
	n    int
	list [linearSetMax]string
	m    map[string]struct{}
}

// Add inserts t and reports whether it was absent.
func (s *TermSet) Add(t string) bool {
	if s.m == nil {
		if slices.Contains(s.list[:s.n], t) {
			return false
		}
		if s.n < linearSetMax {
			s.list[s.n] = t
			s.n++
			return true
		}
		s.m = make(map[string]struct{}, 2*linearSetMax)
		for _, k := range s.list {
			s.m[k] = struct{}{}
		}
	}
	if _, ok := s.m[t]; ok {
		return false
	}
	s.m[t] = struct{}{}
	return true
}
