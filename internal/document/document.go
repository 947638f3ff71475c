// Package document defines the data model of the system: text documents
// modeled as sets of words, and structured documents modeled as sets of
// (entity:attribute:value) feature triplets, following the paper's Section 2
// and reference [13] (Huang, Liu, Chen, SIGMOD 2008).
package document

import (
	"fmt"
	"sort"
	"strings"
)

// DocID identifies a document within a corpus. IDs are dense, starting at 0,
// assigned in insertion order.
type DocID int

// Kind distinguishes text from structured documents.
type Kind int

const (
	// Text documents are bags of words (Wikipedia-style prose).
	Text Kind = iota
	// Structured documents are sets of feature triplets (shopping products).
	Structured
)

// Triplet is a structured feature (entity:attribute:value), e.g.
// product:name:iPad or tv:brand:toshiba. All three parts are stored
// normalized (lowercase).
type Triplet struct {
	Entity    string
	Attribute string
	Value     string
}

// String renders the triplet in the paper's "entity: attribute: value" form
// used in Figures 8–9 for the shopping expanded queries.
func (t Triplet) String() string {
	return fmt.Sprintf("%s: %s: %s", t.Entity, t.Attribute, t.Value)
}

// Terms returns the searchable terms the triplet contributes: the entity,
// the attribute, the value, and the whole triplet as one composite term
// (entity:attribute:value). Queries produced for structured clusters use the
// composite term so an expanded query can pin down an exact feature, mirroring
// expansions like "canonproducts: category: camcorders" in the paper.
func (t Triplet) Terms() []string {
	terms := make([]string, 0, 8)
	for _, part := range []string{t.Entity, t.Attribute, t.Value} {
		for _, w := range strings.Fields(part) {
			terms = append(terms, w)
		}
	}
	terms = append(terms, t.Composite())
	return terms
}

// Composite returns the single-term encoding entity:attribute:value.
func (t Triplet) Composite() string {
	return t.Entity + ":" + t.Attribute + ":" + t.Value
}

// ParseComposite parses an entity:attribute:value composite term back into a
// Triplet. Returns false when the term is not a composite.
func ParseComposite(term string) (Triplet, bool) {
	parts := strings.SplitN(term, ":", 3)
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
		return Triplet{}, false
	}
	return Triplet{Entity: parts[0], Attribute: parts[1], Value: parts[2]}, true
}

// Document is a single searchable unit. For Text documents, Body holds the
// prose and Triplets is nil. For Structured documents, Triplets holds the
// features and Body holds the title.
type Document struct {
	ID       DocID
	Kind     Kind
	Title    string
	Body     string
	Triplets []Triplet

	// Score is the document's ranking score with respect to the user query
	// that retrieved it; the weighted precision/recall of Section 2 sums
	// these. It is populated by the search layer; a zero value means
	// "unranked" and evaluation falls back to uniform weights.
	Score float64
}

// Corpus is an ordered collection of documents with stable IDs.
type Corpus struct {
	docs []*Document
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus { return &Corpus{} }

// Add appends doc to the corpus, assigns its ID, and returns it.
func (c *Corpus) Add(doc *Document) DocID {
	doc.ID = DocID(len(c.docs))
	c.docs = append(c.docs, doc)
	return doc.ID
}

// AddText is a convenience for adding a prose document.
func (c *Corpus) AddText(title, body string) DocID {
	return c.Add(&Document{Kind: Text, Title: title, Body: body})
}

// AddStructured is a convenience for adding a triplet document.
func (c *Corpus) AddStructured(title string, triplets []Triplet) DocID {
	return c.Add(&Document{Kind: Structured, Title: title, Triplets: triplets})
}

// Get returns the document with the given ID, or nil when out of range.
func (c *Corpus) Get(id DocID) *Document {
	if id < 0 || int(id) >= len(c.docs) {
		return nil
	}
	return c.docs[id]
}

// Len returns the number of documents.
func (c *Corpus) Len() int { return len(c.docs) }

// Docs returns the documents in ID order. The slice is shared; callers must
// not mutate it.
func (c *Corpus) Docs() []*Document { return c.docs }

// FullText returns the text to analyze for indexing: title plus body for
// text documents; title plus the space-joined triplet parts for structured
// documents. Composite triplet terms are handled separately by the indexer
// (they must bypass tokenization).
func (d *Document) FullText() string {
	if d.Kind == Text {
		if d.Title == "" {
			return d.Body
		}
		return d.Title + " " + d.Body
	}
	var sb strings.Builder
	sb.WriteString(d.Title)
	for _, t := range d.Triplets {
		sb.WriteByte(' ')
		sb.WriteString(t.Entity)
		sb.WriteByte(' ')
		sb.WriteString(t.Attribute)
		sb.WriteByte(' ')
		sb.WriteString(t.Value)
	}
	return sb.String()
}

// CompositeTerms returns the composite triplet terms of a structured
// document, deduplicated and sorted. Empty for text documents.
func (d *Document) CompositeTerms() []string {
	if len(d.Triplets) == 0 {
		return nil
	}
	seen := make(map[string]struct{}, len(d.Triplets))
	for _, t := range d.Triplets {
		seen[t.Composite()] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for term := range seen {
		out = append(out, term)
	}
	sort.Strings(out)
	return out
}
