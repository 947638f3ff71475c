package qec

import (
	"context"
	"fmt"
	"io"
	"strings"

	xp "repro/internal/expander"
	"repro/internal/obs"
)

// Expander is the pluggable expansion backend contract: given the shared
// parse + search preamble's output, produce one Expansion. The engine
// dispatches to a backend per request — the four clustered-pipeline methods
// (ISKR, PEBC, DeltaF, OR-ISKR), the three alternative paradigms (vector,
// lexical, orthogonal), or a custom backend registered with WithExpander.
//
// The backend contract (docs/EXPANDERS.md spells out each leg):
//
//   - Determinism: Expand must be a pure function of (corpus, query,
//     options, seed) — bit-identical output on every run and worker count.
//   - Cache keying: a backend is identified by its Name in the expansion
//     cache key, so two backends can never share a cached entry; a backend
//     whose output depends on state outside (corpus, query, options, seed)
//     breaks caching and must not be registered on cached engines.
//   - Quality: backends that do not cluster ignore Opts.Quality; the engine
//     still keys the cache on it.
//   - Telemetry: stage spans recorded through the trace must reuse the
//     pipeline stage names (parse/search/problem/cluster/solve/assemble);
//     custom backends are accounted wholly to the solve stage.
type Expander interface {
	// Name returns the backend's method string: its telemetry label, its
	// cache-key leg, and the name ExpandOptions.MethodName selects it by.
	Name() string
	// Expand generates the expansion for one request. The input arrives by
	// value and its slices must be treated as read-only.
	Expand(in ExpandInput) (*Expansion, error)
}

// ExpandInput is what the engine hands a backend: the parsed query and its
// ranked results (the shared parse + search preamble has already run — the
// query is non-empty and Results is non-empty), plus the request options
// and the engine itself for corpus access.
type ExpandInput struct {
	// Engine is the serving engine (index built).
	Engine *Engine
	// Query is the parsed user query.
	Query Query
	// Results are the ranked hits, already cut to Opts.TopK.
	Results []Result
	// Opts is the request's options. K may be zero (meaning 3) — use
	// in.SuggestionCount for the resolved value.
	Opts ExpandOptions
	// Seed is the engine's deterministic seed.
	Seed int64

	// ctx is the request's cancellation signal (never nil — the engine
	// defaults it to context.Background). Backends may poll it at natural
	// round boundaries to stop early; a run cut short must return an error,
	// never a partial Expansion, so cancelled work is not cached.
	ctx context.Context
	// trace carries the per-request stage spans; built-in adapters record
	// into it and custom backends are spanned by the engine.
	trace *obs.Trace
	// explain, when non-nil, asks the backend to fill the decision trail as
	// it goes. Collection must be read-along only: the expansion returned
	// with an explain attached must be bit-identical to one without.
	explain *Explain
}

// Context returns the request's cancellation context (never nil).
func (in ExpandInput) Context() context.Context {
	if in.ctx != nil {
		return in.ctx
	}
	return context.Background()
}

// SuggestionCount resolves Opts.K against its default (3).
func (in ExpandInput) SuggestionCount() int {
	if in.Opts.K > 0 {
		return in.Opts.K
	}
	return 3
}

// SynonymSource supplies synonym candidates for the lexical backend. See
// NewSynonymTable and LoadSynonyms for the in-memory and file-backed
// implementations; implementations must return sorted, self-free slices and
// be deterministic call-to-call.
type SynonymSource = xp.SynonymSource

// NewSynonymTable builds an in-memory SynonymSource from a headword →
// synonyms map (entries are lowercased, deduplicated and sorted).
func NewSynonymTable(raw map[string][]string) SynonymSource { return xp.NewTable(raw) }

// LoadSynonyms parses a synonym file (lines of "head: syn1, syn2" or
// symmetric groups "a, b, c"; #-comments) into a SynonymSource.
func LoadSynonyms(r io.Reader) (SynonymSource, error) { return xp.LoadTable(r) }

// WithSynonyms sets the engine's synonym source for the lexical backend
// (default: a small built-in demo table).
func WithSynonyms(src SynonymSource) Option {
	return func(e *Engine) { e.synonyms = src }
}

// WithExpander registers a custom backend under its Name (lowercased).
// Requests select it with ExpandOptions.MethodName; the custom registry is
// checked before the built-in method names, so a custom backend may shadow
// a built-in (its cache-key leg stays distinct). The backend must honor the
// Expander contract; its whole run is accounted to the solve stage and the
// "custom" telemetry slot.
func WithExpander(x Expander) Option {
	return func(e *Engine) {
		if e.custom == nil {
			e.custom = make(map[string]Expander)
		}
		e.custom[strings.ToLower(strings.TrimSpace(x.Name()))] = customAdapter{x}
	}
}

// MethodInfo describes one built-in expansion method for the registry-driven
// surfaces: ParseMethod's error, qec-expand -method=help, and the docs
// consistency check.
type MethodInfo struct {
	// Method is the enum value.
	Method Method
	// Name is the canonical wire string ("iskr", "vector", ...).
	Name string
	// Aliases also parse to this method.
	Aliases []string
	// Summary is a one-line description.
	Summary string
	// Paradigm groups the method ("clustered", "vector", "lexical",
	// "coverage").
	Paradigm string
	// Clusters reports whether the method emits per-cluster queries (and
	// fills Expansion.Clusters).
	Clusters bool
	// UsesQuality reports whether Opts.Quality changes the output.
	UsesQuality bool
	// UsesSeed reports whether the engine seed changes the output.
	UsesSeed bool
	// UsesSynonyms reports whether the engine's SynonymSource feeds the
	// method.
	UsesSynonyms bool
}

// methodRegistry is the single source of truth for the built-in methods:
// ParseMethod, MethodNames, the help matrix and the docs-consistency test
// all derive from it. Indexed by Method ordinal (compile-enforced size).
var methodRegistry = [NumMethods]MethodInfo{
	ISKR: {
		Method: ISKR, Name: "iskr",
		Summary:  "iterative single-keyword refinement per cluster (paper §3; default)",
		Paradigm: "clustered", Clusters: true, UsesQuality: true, UsesSeed: true,
	},
	PEBC: {
		Method: PEBC, Name: "pebc",
		Summary:  "partial-elimination convergence per cluster (paper §4)",
		Paradigm: "clustered", Clusters: true, UsesQuality: true, UsesSeed: true,
	},
	DeltaF: {
		Method: DeltaF, Name: "deltaf", Aliases: []string{"delta-f", "fmeasure", "f-measure"},
		Summary:  "exact delta-F keyword values per cluster (paper's F-measure variant)",
		Paradigm: "clustered", Clusters: true, UsesQuality: true, UsesSeed: true,
	},
	ORExpansion: {
		Method: ORExpansion, Name: "or", Aliases: []string{"oriskr", "or-iskr"},
		Summary:  "OR-semantics cluster coverage (paper appendix)",
		Paradigm: "clustered", Clusters: true, UsesQuality: true, UsesSeed: true,
	},
	VectorNeighborhood: {
		Method: VectorNeighborhood, Name: "vector", Aliases: []string{"vector-neighborhood", "neighborhood"},
		Summary:  "TF-IDF neighborhood-centroid terms of the top results",
		Paradigm: "vector",
	},
	LexicalSynonym: {
		Method: LexicalSynonym, Name: "lexical", Aliases: []string{"lexical-synonym", "synonym", "wordnet"},
		Summary:  "WordNet-style synonyms of the query terms, F-ranked in-corpus",
		Paradigm: "lexical", UsesSynonyms: true,
	},
	Orthogonal: {
		Method: Orthogonal, Name: "orthogonal", Aliases: []string{"ortho"},
		Summary:  "mutually dissimilar expansions by greedy result coverage",
		Paradigm: "coverage",
	},
}

// Methods lists the built-in expansion methods in Method-ordinal order.
func Methods() []MethodInfo {
	out := make([]MethodInfo, NumMethods)
	copy(out, methodRegistry[:])
	return out
}

// MethodNames lists the canonical method strings in Method-ordinal order.
func MethodNames() []string {
	out := make([]string, NumMethods)
	for i, mi := range methodRegistry {
		out[i] = mi.Name
	}
	return out
}

// builtinExpanders holds one pre-converted adapter per built-in method, so
// dispatch costs an array load — no per-request interface conversion (the
// cold-expansion benchmark pins zero instrumentation allocations).
var builtinExpanders = [NumMethods]Expander{
	ISKR:               clusteredExpander{ISKR},
	PEBC:               clusteredExpander{PEBC},
	DeltaF:             clusteredExpander{DeltaF},
	ORExpansion:        clusteredExpander{ORExpansion},
	VectorNeighborhood: vectorExpander{},
	LexicalSynonym:     lexicalExpander{},
	Orthogonal:         orthogonalExpander{},
}

// backendFor resolves a request's options to its backend and telemetry
// slot. MethodName (when set) overrides Method: the custom registry is
// checked first, then the built-in names/aliases; unknown names get
// ParseMethod's canonical error. A plain Method outside the enum clamps to
// ISKR, matching the historical switch default. An undefined Quality level
// is an error: it names no effort level and no metrics slot.
func (e *Engine) backendFor(opts ExpandOptions) (Expander, int, error) {
	if !opts.Quality.Valid() {
		return nil, 0, fmt.Errorf("qec: undefined quality level %d", int(opts.Quality))
	}
	if opts.MethodName != "" {
		name := strings.ToLower(strings.TrimSpace(opts.MethodName))
		if x, ok := e.custom[name]; ok {
			return x, CustomMethodSlot, nil
		}
		m, err := ParseMethod(name)
		if err != nil {
			return nil, 0, err
		}
		return builtinExpanders[m], int(m), nil
	}
	m := opts.Method
	if m < 0 || m >= NumMethods {
		m = ISKR
	}
	return builtinExpanders[m], int(m), nil
}

// methodLeg is the cache key's method component. Built-in methods use their
// canonical label (aliases and the Method/MethodName spellings of the same
// method share an entry); custom backends get an "x:"-prefixed leg so they
// can never collide with a built-in of the same name.
func (e *Engine) methodLeg(opts ExpandOptions) string {
	if opts.MethodName != "" {
		name := strings.ToLower(strings.TrimSpace(opts.MethodName))
		if _, ok := e.custom[name]; ok {
			return "x:" + name
		}
		if m, err := ParseMethod(name); err == nil {
			return MethodLabel(int(m))
		}
		// Unknown names error out of expand before anything is cached; the
		// leg only needs to be non-colliding.
		return "bad:" + name
	}
	return MethodLabel(int(opts.Method))
}

// synonymSource resolves the engine's synonym source (nil → the built-in
// demo table).
func (e *Engine) synonymSource() SynonymSource {
	if e.synonyms != nil {
		return e.synonyms
	}
	return defaultSynonyms
}

// defaultSynonyms is built once — the table is immutable by convention.
var defaultSynonyms = xp.DefaultSynonyms()

// input converts the public ExpandInput to the internal backend input.
func (in ExpandInput) input() *xp.Input {
	e := in.Engine
	return &xp.Input{
		Idx:        e.idx,
		Eng:        e.eng,
		Query:      in.Query,
		Results:    in.Results,
		K:          in.SuggestionCount(),
		Unweighted: in.Opts.Unweighted,
		Seed:       in.Seed,
		Synonyms:   e.synonymSource(),
		Trace:      in.trace,
	}
}

// assembleFlat converts an internal backend output to the public Expansion
// under the assemble span. Non-clustered backends leave Clusters nil; the
// Cluster ordinal is the suggestion's rank.
func assembleFlat(in ExpandInput, o *xp.Output) (*Expansion, error) {
	tr := in.trace
	tr.Begin(obs.StageAssemble)
	out := &Expansion{Original: in.Query.Terms, Score: o.Score}
	for i, s := range o.Suggestions {
		out.Queries = append(out.Queries, ExpandedQuery{
			Terms:     s.Terms,
			Cluster:   i,
			Precision: s.PRF.Precision,
			Recall:    s.PRF.Recall,
			F:         s.PRF.F,
		})
	}
	tr.End(obs.StageAssemble)
	return out, nil
}

// vectorExpander adapts the internal vector-neighborhood backend.
type vectorExpander struct{}

func (vectorExpander) Name() string { return methodRegistry[VectorNeighborhood].Name }
func (vectorExpander) Expand(in ExpandInput) (*Expansion, error) {
	return assembleFlat(in, xp.Vector{}.Expand(in.input()))
}

// lexicalExpander adapts the internal lexical-synonym backend.
type lexicalExpander struct{}

func (lexicalExpander) Name() string { return methodRegistry[LexicalSynonym].Name }
func (lexicalExpander) Expand(in ExpandInput) (*Expansion, error) {
	return assembleFlat(in, xp.Lexical{}.Expand(in.input()))
}

// orthogonalExpander adapts the internal orthogonal backend.
type orthogonalExpander struct{}

func (orthogonalExpander) Name() string { return methodRegistry[Orthogonal].Name }
func (orthogonalExpander) Expand(in ExpandInput) (*Expansion, error) {
	return assembleFlat(in, xp.Orthogonal{}.Expand(in.input()))
}

// customAdapter wraps a WithExpander-registered backend so its whole run is
// accounted to the solve stage (custom code cannot reach the trace).
type customAdapter struct{ x Expander }

func (c customAdapter) Name() string { return c.x.Name() }
func (c customAdapter) Expand(in ExpandInput) (*Expansion, error) {
	tr := in.trace
	tr.Begin(obs.StageSolve)
	out, err := c.x.Expand(in)
	tr.End(obs.StageSolve)
	return out, err
}
