package dataset

import (
	"math/rand"
	"strings"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/document"
)

// sense is one meaning of an ambiguous query term: a topical vocabulary plus
// a share of the documents. Shares are deliberately skewed for some topics
// (e.g. "apple"-style dominance) to reproduce the ranking-bias phenomenon of
// Section 1: a rare sense still forms its own cluster.
type sense struct {
	name  string
	vocab []string
	// rare is a tail of hyper-specific words that appear only as occasional
	// high-frequency bursts in single documents ("biophosphate", "sumono",
	// "wakaheena" in the paper's CS outputs). They give TFICF-style cluster
	// labelers and tf-weighted word clouds exactly the too-specific bait the
	// paper describes.
	rare []string
	// docs is the base number of documents for this sense (scaled).
	docs int
}

// topic is one ambiguous query term with its senses.
type topic struct {
	query  string // the words every document of this topic contains
	senses []sense
}

// wikiAmbient is the shared vocabulary mixed into every document regardless
// of sense — document-centric prose noise ("sentences/paragraphs rather than
// succinct and informative features", per Section 5.2.1's explanation of why
// Wikipedia is harder).
var wikiAmbient = []string{
	"history", "article", "reference", "external", "link", "source", "year",
	"world", "people", "large", "part", "time", "early", "late", "major",
	"known", "called", "include", "found", "list", "section", "page",
}

// wikipediaQueries is Table 1's Wikipedia column.
func wikipediaQueries() []TestQuery {
	return []TestQuery{
		{ID: "QW1", Raw: "san jose"},
		{ID: "QW2", Raw: "columbia"},
		{ID: "QW3", Raw: "cvs"},
		{ID: "QW4", Raw: "domino"},
		{ID: "QW5", Raw: "eclipse"},
		{ID: "QW6", Raw: "java"},
		{ID: "QW7", Raw: "cell"},
		{ID: "QW8", Raw: "rockets"},
		{ID: "QW9", Raw: "mouse"},
		{ID: "QW10", Raw: "sportsman williams"},
	}
}

// wikipediaLog synthesizes Google's suggestions for the Wikipedia queries,
// reproducing the paper's observations: popular and meaningful ("java
// tutorials"), but sometimes one-sense-only (all "rockets" suggestions are
// about space) or off-corpus ("san jose costa rica").
func wikipediaLog() []baseline.LogEntry {
	return []baseline.LogEntry{
		{Query: "san jose attractions", Count: 940},
		{Query: "san jose costa rica", Count: 910},
		{Query: "san jose weather", Count: 620},
		{Query: "columbia country", Count: 960},
		{Query: "columbia house", Count: 850},
		{Query: "columbia wikipedia", Count: 700},
		{Query: "cvs careers", Count: 930},
		{Query: "cvs test", Count: 760},
		{Query: "cvs caremark", Count: 890},
		{Query: "domino game", Count: 920},
		{Query: "domino movie", Count: 830},
		{Query: "domino records", Count: 740},
		{Query: "eclipse mitsubishi", Count: 900},
		{Query: "eclipse car", Count: 810},
		{Query: "solar eclipse", Count: 950},
		{Query: "java tutorials", Count: 990},
		{Query: "java games", Count: 880},
		{Query: "java test", Count: 720},
		{Query: "cell parts of a cell", Count: 860},
		{Query: "cell theory", Count: 780},
		{Query: "cell animal", Count: 690},
		// All "rockets" suggestions are space rockets — the paper's example
		// of Google missing the NBA sense entirely.
		{Query: "model rockets", Count: 940},
		{Query: "space rockets", Count: 930},
		{Query: "bottle rockets", Count: 820},
		{Query: "mouse pictures", Count: 870},
		{Query: "mouse breaker", Count: 750},
		{Query: "mouse pictures of mice", Count: 640},
		{Query: "sportsman williams football", Count: 560},
		{Query: "sportsman williams baseball", Count: 480},
		{Query: "sportsman williams news", Count: 390},
	}
}

// Wikipedia generates the ambiguous-sense prose corpus. scale multiplies
// per-sense document counts (the Figure 7 scalability sweep uses scale to
// reach 500 "columbia" results). Deterministic per seed.
func Wikipedia(seed int64, scale int) *Dataset {
	if scale < 1 {
		scale = 1
	}
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{
		Name:    "wikipedia",
		Corpus:  document.NewCorpus(),
		Queries: wikipediaQueries(),
		Labels:  map[document.DocID]string{},
		Log:     wikipediaLog(),
	}
	for _, tp := range wikiTopics() {
		for si, sn := range tp.senses {
			n := sn.docs * scale
			for i := 0; i < n; i++ {
				// A document: the topic term(s), a topical core with
				// Zipf-ish repetition, and ambient noise. Topical words
				// dominate so senses separate, but ambient overlap keeps
				// clustering imperfect (as the paper reports).
				var body strings.Builder
				body.WriteString(tp.query)
				writeWords(&body, rng, sn.vocab, 10+rng.Intn(8))
				writeWords(&body, rng, wikiAmbient, 3+rng.Intn(4))
				// Cross-sense leakage: real articles mention sibling senses
				// (a Java-island page mentions coffee; a programming page
				// mentions Microsoft). Leakage is what makes single-word
				// expansion imprecise and forces the keyword *interaction*
				// the paper's Section 1 motivates.
				if len(tp.senses) > 1 && rng.Float64() < 0.35 {
					other := tp.senses[(si+1+rng.Intn(len(tp.senses)-1))%len(tp.senses)]
					writeWords(&body, rng, other.vocab, 1+rng.Intn(3))
				}
				// Occasional single-document burst of a hyper-specific rare
				// word (real prose is bursty) — the too-specific bait that
				// TFICF labels and tf-weighted clouds pick up.
				if len(sn.rare) > 0 && rng.Float64() < 0.35 {
					w := pick(rng, sn.rare)
					reps := 4 + rng.Intn(4)
					for j := 0; j < reps; j++ {
						body.WriteByte(' ')
						body.WriteString(w)
					}
				}
				// One or two document-specific proper names (people,
				// places), so the distinct-keyword count grows with the
				// corpus the way real prose does — the paper's QS8 cluster
				// had 464 distinct keywords.
				names := 1 + rng.Intn(2)
				for j := 0; j < names; j++ {
					writeProperName(&body, rng)
				}
				// Some documents mention the topic twice (title-style).
				if rng.Float64() < 0.3 {
					body.WriteByte(' ')
					body.WriteString(tp.query)
				}
				id := d.Corpus.AddText("", body.String())
				d.Labels[id] = tp.query + "/" + sn.name
			}
		}
	}
	d.buildIndex(analysis.Simple())
	return d
}
