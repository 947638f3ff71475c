// Package search implements boolean keyword retrieval with TF-IDF ranking
// over the inverted index. A result of a query is, per Section 2 of the
// paper, a document that contains all the query keywords (AND semantics);
// OR semantics is also provided since the paper notes it is "essentially the
// identical problem".
package search

import (
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/document"
	"repro/internal/index"
	"repro/internal/termdict"
)

// Semantics selects how multiple keywords combine.
type Semantics int

const (
	// And retrieves documents containing every keyword.
	And Semantics = iota
	// Or retrieves documents containing at least one keyword.
	Or
)

// Query is a keyword query: a set of normalized terms. Terms may be plain
// words or composite triplet terms (entity:attribute:value).
type Query struct {
	Terms []string
}

// ParseQuery analyzes raw user text into a query using the index's analyzer.
// Composite terms (containing ':') are lowercased and otherwise kept
// verbatim; like every term, each is kept once.
func ParseQuery(idx *index.Index, raw string) Query {
	var terms []string
	var seen analysis.TermSet
	for field := range strings.FieldsSeq(raw) {
		if strings.Contains(field, ":") {
			if field = strings.ToLower(field); seen.Add(field) {
				terms = append(terms, field)
			}
			continue
		}
		// The one set de-duplicates within a field as UniqueTerms would.
		for _, tok := range idx.Analyzer().Analyze(field) {
			if seen.Add(tok.Term) {
				terms = append(terms, tok.Term)
			}
		}
	}
	return Query{Terms: terms}
}

// NewQuery builds a query from already-normalized terms, deduplicated,
// preserving order.
func NewQuery(terms ...string) Query {
	seen := make(map[string]struct{}, len(terms))
	out := make([]string, 0, len(terms))
	for _, t := range terms {
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return Query{Terms: out}
}

// With returns a copy of q with term appended (no-op if already present).
func (q Query) With(term string) Query {
	for _, t := range q.Terms {
		if t == term {
			return q
		}
	}
	terms := make([]string, len(q.Terms), len(q.Terms)+1)
	copy(terms, q.Terms)
	return Query{Terms: append(terms, term)}
}

// Without returns a copy of q with term removed.
func (q Query) Without(term string) Query {
	terms := make([]string, 0, len(q.Terms))
	for _, t := range q.Terms {
		if t != term {
			terms = append(terms, t)
		}
	}
	return Query{Terms: terms}
}

// Contains reports whether the query includes term.
func (q Query) Contains(term string) bool {
	for _, t := range q.Terms {
		if t == term {
			return true
		}
	}
	return false
}

// Len returns the number of terms.
func (q Query) Len() int { return len(q.Terms) }

// String renders the query as space-joined terms.
func (q Query) String() string { return strings.Join(q.Terms, " ") }

// Result is one ranked search hit.
type Result struct {
	Doc   document.DocID
	Score float64
}

// Engine evaluates queries against an index.
type Engine struct {
	idx *index.Index
}

// NewEngine returns a search engine over idx.
func NewEngine(idx *index.Index) *Engine { return &Engine{idx: idx} }

// Index returns the underlying index.
func (e *Engine) Index() *index.Index { return e.idx }

// Eval returns the unranked result of q under the given semantics as
// ascending document IDs — the raw sorted-postings merge output, with no
// intermediate set materialized. An empty AND query matches every document;
// an empty OR query matches none.
func (e *Engine) Eval(q Query, sem Semantics) []document.DocID {
	if sem == Or {
		return e.evalOrIDs(e.resolveTerms(q))
	}
	return e.evalAndIDs(e.resolveTerms(q))
}

// resolveTerms interns q's terms through the index's global term dictionary,
// once per evaluation. Terms outside the corpus vocabulary resolve to
// termdict.NoTerm (they match no document).
func (e *Engine) resolveTerms(q Query) []termdict.TermID {
	tids := make([]termdict.TermID, len(q.Terms))
	for i, t := range q.Terms {
		tid, ok := e.idx.LookupTerm(t)
		if !ok {
			tid = termdict.NoTerm
		}
		tids[i] = tid
	}
	return tids
}

// evalAndIDs returns the AND result as ascending document IDs, via a
// sorted-postings merge over the raw []int32 arena slices: postings are
// intersected smallest-first, each round advancing through the longer list
// with a galloping search from the current merge position, so no
// intermediate map (or string lookup) happens inside the merge.
func (e *Engine) evalAndIDs(tids []termdict.TermID) []document.DocID {
	if len(tids) == 0 {
		all := make([]document.DocID, e.idx.NumDocs())
		for i := range all {
			all[i] = document.DocID(i)
		}
		return all
	}
	lists := make([][]int32, len(tids))
	for i, tid := range tids {
		if tid == termdict.NoTerm {
			return nil
		}
		lists[i] = e.idx.PostingsDocs(tid)
		if len(lists[i]) == 0 {
			return nil
		}
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	cands := make([]document.DocID, len(lists[0]))
	for i, d := range lists[0] {
		cands[i] = document.DocID(d)
	}
	for _, plist := range lists[1:] {
		out := cands[:0]
		j := 0
		for _, id := range cands {
			k := sort.Search(len(plist)-j, func(i int) bool { return plist[j+i] >= int32(id) })
			j += k
			if j < len(plist) && plist[j] == int32(id) {
				out = append(out, id)
				j++
			}
		}
		cands = out
		if len(cands) == 0 {
			return nil
		}
	}
	return cands
}

// evalOrIDs returns the OR result as ascending document IDs, via a k-way
// merge over the sorted posting arena slices: each round emits the smallest
// current document across the lists and advances every cursor sitting on it.
// No map (or per-document hashing) is involved, and the output order is the
// ascending-DocID order the scoring layers fold in.
func (e *Engine) evalOrIDs(tids []termdict.TermID) []document.DocID {
	lists := make([][]int32, 0, len(tids))
	longest := 0
	for _, tid := range tids {
		if tid == termdict.NoTerm {
			continue
		}
		if l := e.idx.PostingsDocs(tid); len(l) > 0 {
			lists = append(lists, l)
			if len(l) > longest {
				longest = len(l)
			}
		}
	}
	switch len(lists) {
	case 0:
		return nil
	case 1:
		out := make([]document.DocID, len(lists[0]))
		for i, d := range lists[0] {
			out[i] = document.DocID(d)
		}
		return out
	}
	pos := make([]int, len(lists))
	out := make([]document.DocID, 0, longest)
	for {
		min := int32(-1)
		for i, l := range lists {
			if pos[i] < len(l) && (min < 0 || l[pos[i]] < min) {
				min = l[pos[i]]
			}
		}
		if min < 0 {
			return out
		}
		out = append(out, document.DocID(min))
		for i, l := range lists {
			if pos[i] < len(l) && l[pos[i]] == min {
				pos[i]++
			}
		}
	}
}

// scoreIDs is Score over pre-resolved TermIDs — the per-result ranking cost
// of Search, free of string lookups.
func (e *Engine) scoreIDs(id document.DocID, tids []termdict.TermID) float64 {
	s := 0.0
	for _, tid := range tids {
		if tid != termdict.NoTerm {
			s += e.idx.TFIDFByID(id, tid)
		}
	}
	if n := e.idx.DocLen(id); n > 0 {
		s /= 1 + float64(n)/e.idx.AvgDocLen()
	}
	return s
}

// Score returns the TF-IDF relevance score of document id for query q:
// the sum of tf·idf over the query terms, normalized by document length.
// This is the ranking the experimental setup describes ("the results are
// ranked using tfidf of the keywords").
func (e *Engine) Score(id document.DocID, q Query) float64 {
	return e.scoreIDs(id, e.resolveTerms(q))
}

// PruneStats collects the top-K pruning counters of one Search: how many
// driving-list blocks the block-max check skipped wholesale, how many cursor
// advances the galloping skips performed, how many candidates were scored
// versus dropped by a bound check, and the heap-threshold trajectory (the
// K-th best score each time it moved, capped at maxThresholdSamples). A nil
// *PruneStats is valid everywhere — every method no-ops — so the pruned
// paths carry no explain branches beyond a nil test. Recording never touches
// the score arithmetic: SearchPruned with a collector is bit-identical to
// Search.
type PruneStats struct {
	// Pruned reports whether a pruned top-K path ran at all (false for
	// topK <= 0 and the empty AND query, which scan fully).
	Pruned bool
	// BlocksSkipped counts driving-list blocks skipped wholesale by the
	// AND path's block-max check.
	BlocksSkipped int
	// CursorAdvances counts posting-cursor moves: galloping advances in
	// the AND intersection, per-list pops in the OR merge.
	CursorAdvances int
	// DocsScored and DocsSkipped split the candidates that survived the
	// traversal: fully scored versus dropped by a bound check just before
	// scoring.
	DocsScored, DocsSkipped int
	// NonEssential is the OR path's final non-essential prefix size.
	NonEssential int
	// Thresholds is the heap-threshold trajectory: the K-th best score
	// each time it changed, oldest first.
	Thresholds []float64
}

// maxThresholdSamples bounds the recorded threshold trajectory.
const maxThresholdSamples = 64

func (ps *PruneStats) markPruned() {
	if ps != nil {
		ps.Pruned = true
	}
}

func (ps *PruneStats) blockSkipped() {
	if ps != nil {
		ps.BlocksSkipped++
	}
}

func (ps *PruneStats) advanced() {
	if ps != nil {
		ps.CursorAdvances++
	}
}

func (ps *PruneStats) scored() {
	if ps != nil {
		ps.DocsScored++
	}
}

func (ps *PruneStats) skipped() {
	if ps != nil {
		ps.DocsSkipped++
	}
}

func (ps *PruneStats) noteThreshold(v float64) {
	if ps == nil {
		return
	}
	if n := len(ps.Thresholds); n < maxThresholdSamples && (n == 0 || ps.Thresholds[n-1] != v) {
		ps.Thresholds = append(ps.Thresholds, v)
	}
}

// Search evaluates q and returns results ranked by descending TF-IDF score
// (ties broken by ascending DocID for determinism). topK <= 0 returns all.
// Query strings are resolved to TermIDs once.
//
// A finite topK runs the max-score/block-max pruned paths (searchTopKAnd /
// searchTopKOr), which skip scoring — and for AND, skip whole posting
// blocks — for documents whose score upper bound cannot reach the current
// K-th best. Pruning is exact: the returned slice is bit-identical to
// scoring the entire result and truncating, which topK <= 0 (and the empty
// AND query, whose result is the whole corpus) still does.
func (e *Engine) Search(q Query, sem Semantics, topK int) []Result {
	return e.SearchPruned(q, sem, topK, nil)
}

// SearchPruned is Search with an optional pruning-counter collector for the
// EXPLAIN surface. ps may be nil (then this is exactly Search); with a
// collector attached the results are still bit-identical — only counters and
// the threshold trajectory are recorded.
func (e *Engine) SearchPruned(q Query, sem Semantics, topK int, ps *PruneStats) []Result {
	tids := e.resolveTerms(q)
	if topK > 0 {
		if sem == Or {
			return e.searchTopKOr(tids, topK, ps)
		}
		if len(tids) > 0 {
			return e.searchTopKAnd(tids, topK, ps)
		}
	}
	var results []Result
	if sem == And {
		ids := e.evalAndIDs(tids)
		results = make([]Result, 0, len(ids))
		for _, id := range ids {
			results = append(results, Result{Doc: id, Score: e.scoreIDs(id, tids)})
		}
	} else {
		ids := e.evalOrIDs(tids)
		results = make([]Result, 0, len(ids))
		for _, id := range ids {
			results = append(results, Result{Doc: id, Score: e.scoreIDs(id, tids)})
		}
	}
	sortResults(results)
	if topK > 0 && len(results) > topK {
		results = results[:topK]
	}
	return results
}

// boundSlack inflates every score upper bound before it is compared against
// the heap threshold. The block-max tables bound per-posting contributions
// computed as tf·idf/D in isolation, while scoreIDs divides the summed
// tf·idf once at the end; in real arithmetic the summed bounds dominate the
// true score, but the two float expressions can disagree by a few ulps.
// Multiplying the bound by 1+1e-9 — many orders of magnitude above the
// worst-case accumulated rounding of any realistic query width — and
// pruning only when the inflated bound still falls strictly below the
// threshold keeps every skip provably safe: a pruned document's true float
// score is strictly below the current K-th best, so it could not have
// entered the result even on a tie.
const boundSlack = 1 + 1e-9

// worse reports whether a ranks strictly below b in the engine's result
// ordering (score descending, DocID ascending).
func worse(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

// topKHeap is a bounded min-heap keyed worst-first under the result
// ordering: the root is the current K-th best hit, whose score is the
// pruning threshold.
type topKHeap struct {
	k     int
	items []Result
}

func (h *topKHeap) full() bool { return len(h.items) == h.k }

// threshold returns the K-th best score; callers check full() first.
func (h *topKHeap) threshold() float64 { return h.items[0].Score }

// push offers a result. Until full it inserts; once full it replaces the
// root only when r ranks strictly above it.
func (h *topKHeap) push(r Result) {
	if len(h.items) < h.k {
		h.items = append(h.items, r)
		i := len(h.items) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !worse(h.items[i], h.items[p]) {
				break
			}
			h.items[i], h.items[p] = h.items[p], h.items[i]
			i = p
		}
		return
	}
	if !worse(h.items[0], r) {
		return
	}
	h.items[0] = r
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h.items) {
			return
		}
		if rc := c + 1; rc < len(h.items) && worse(h.items[rc], h.items[c]) {
			c = rc
		}
		if !worse(h.items[c], h.items[i]) {
			return
		}
		h.items[i], h.items[c] = h.items[c], h.items[i]
		i = c
	}
}

// sorted returns the collected results in final rank order.
func (h *topKHeap) sorted() []Result {
	sortResults(h.items)
	return h.items
}

// sortResults orders results by descending score, ties by ascending DocID —
// the engine-wide ranking order.
func sortResults(results []Result) {
	sort.Slice(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		return results[i].Doc < results[j].Doc
	})
}

// advancePostings returns the first position >= pos whose document is >=
// target, galloping exponentially from pos before binary-searching the
// bracketed window — the skip primitive of both pruned paths.
func advancePostings(docs []int32, pos int, target int32) int {
	if pos >= len(docs) || docs[pos] >= target {
		return pos
	}
	step := 1
	hi := pos + 1
	for hi < len(docs) && docs[hi] < target {
		pos = hi
		hi += step
		step <<= 1
	}
	if hi > len(docs) {
		hi = len(docs)
	}
	lo := pos + 1
	return lo + sort.Search(hi-lo, func(k int) bool { return docs[lo+k] >= target })
}

// searchTopKAnd is the pruned AND path: the same smallest-first galloping
// intersection as evalAndIDs, threaded with block-max skipping once the
// heap is full. Whole driving-list blocks are skipped when the block max
// plus the other terms' max-scores cannot strictly beat the K-th best
// score, and intersection survivors are scored only when the sum of the
// per-list block maxes at their positions can. Candidates arrive in
// ascending DocID order, and survivors are scored straight off the cursor
// positions the intersection already holds — each term's tf is the aligned
// freqs entry, so no per-term posting lookup — folding the tf·idf
// contributions in original query-term order, exactly scoreIDs' fold
// (TFIDFByID is float64(tf)·idf), so the output is bit-identical to the
// full-scoring path.
func (e *Engine) searchTopKAnd(qtids []termdict.TermID, topK int, ps *PruneStats) []Result {
	ps.markPruned()
	type andCursor struct {
		docs  []int32
		freqs []uint16
		bm    []float64
		idf   float64
		ub    float64
		ord   int // position in qtids = scoring fold order
		pos   int
	}
	curs := make([]andCursor, len(qtids))
	for i, tid := range qtids {
		if tid == termdict.NoTerm {
			return []Result{}
		}
		docs := e.idx.PostingsDocs(tid)
		if len(docs) == 0 {
			return []Result{}
		}
		curs[i] = andCursor{
			docs:  docs,
			freqs: e.idx.PostingsFreqs(tid),
			bm:    e.idx.BlockMaxScores(tid),
			idf:   e.idx.IDFByID(tid),
			ub:    e.idx.TermMaxScore(tid),
			ord:   i,
		}
	}
	sort.Slice(curs, func(i, j int) bool { return len(curs[i].docs) < len(curs[j].docs) })
	restUB := 0.0
	for _, c := range curs[1:] {
		restUB += c.ub
	}
	contrib := make([]float64, len(curs)) // indexed by ord; every slot set per survivor
	avg := e.idx.AvgDocLen()
	h := &topKHeap{k: topK, items: make([]Result, 0, min(topK, len(curs[0].docs)))}
	drive := &curs[0]
	i := 0
outer:
	for i < len(drive.docs) {
		if h.full() {
			b := i / index.ScoreBlockSize
			if (drive.bm[b]+restUB)*boundSlack < h.threshold() {
				i = (b + 1) * index.ScoreBlockSize
				ps.blockSkipped()
				continue
			}
		}
		d := drive.docs[i]
		bound := drive.bm[i/index.ScoreBlockSize]
		contrib[drive.ord] = float64(drive.freqs[i]) * drive.idf
		for j := 1; j < len(curs); j++ {
			c := &curs[j]
			c.pos = advancePostings(c.docs, c.pos, d)
			ps.advanced()
			if c.pos >= len(c.docs) {
				break outer
			}
			if c.docs[c.pos] != d {
				i++
				continue outer
			}
			bound += c.bm[c.pos/index.ScoreBlockSize]
			contrib[c.ord] = float64(c.freqs[c.pos]) * c.idf
		}
		if !h.full() || bound*boundSlack >= h.threshold() {
			id := document.DocID(d)
			s := 0.0
			for _, v := range contrib {
				s += v
			}
			if n := e.idx.DocLen(id); n > 0 {
				s /= 1 + float64(n)/avg
			}
			h.push(Result{Doc: id, Score: s})
			ps.scored()
			if h.full() {
				ps.noteThreshold(h.threshold())
			}
		} else {
			ps.skipped()
		}
		i++
	}
	return h.sorted()
}

// searchTopKOr is the pruned OR path: a document-at-a-time max-score
// traversal over the sorted postings. Cursors are ordered by ascending term
// max-score; once the heap is full, a growing prefix of them turns
// non-essential — their total max-score cannot lift any document past the
// threshold on its own — and candidate documents come only from the
// essential suffix, bounded per candidate by the non-essential prefix sum
// plus the block max of every essential cursor sitting on the document.
// Candidates arrive in ascending DocID order and survivors are scored by
// the unchanged scoreIDs fold, so the output is bit-identical to scoring
// the whole union.
func (e *Engine) searchTopKOr(qtids []termdict.TermID, topK int, ps *PruneStats) []Result {
	ps.markPruned()
	type orCursor struct {
		docs []int32
		bm   []float64
		ub   float64
		pos  int
	}
	curs := make([]orCursor, 0, len(qtids))
	for _, tid := range qtids {
		if tid == termdict.NoTerm {
			continue
		}
		if docs := e.idx.PostingsDocs(tid); len(docs) > 0 {
			curs = append(curs, orCursor{docs: docs, bm: e.idx.BlockMaxScores(tid), ub: e.idx.TermMaxScore(tid)})
		}
	}
	if len(curs) == 0 {
		return []Result{}
	}
	sort.Slice(curs, func(i, j int) bool { return curs[i].ub < curs[j].ub })
	// prefixUB[i] bounds the joint contribution of lists 0..i: a left-fold
	// of their max-scores in cursor order.
	prefixUB := make([]float64, len(curs))
	acc := 0.0
	for i := range curs {
		acc += curs[i].ub
		prefixUB[i] = acc
	}
	h := &topKHeap{k: topK, items: make([]Result, 0, topK)}
	ness := 0 // cursors [0, ness) are non-essential
	for ness < len(curs) {
		d := int32(-1)
		for j := ness; j < len(curs); j++ {
			c := &curs[j]
			if c.pos < len(c.docs) && (d < 0 || c.docs[c.pos] < d) {
				d = c.docs[c.pos]
			}
		}
		if d < 0 {
			break // essential lists exhausted; the prefix cannot beat the threshold
		}
		bound := 0.0
		if ness > 0 {
			bound = prefixUB[ness-1]
		}
		for j := ness; j < len(curs); j++ {
			c := &curs[j]
			if c.pos < len(c.docs) && c.docs[c.pos] == d {
				bound += c.bm[c.pos/index.ScoreBlockSize]
				c.pos++
				ps.advanced()
			}
		}
		if !h.full() || bound*boundSlack >= h.threshold() {
			id := document.DocID(d)
			h.push(Result{Doc: id, Score: e.scoreIDs(id, qtids)})
			ps.scored()
			if h.full() {
				ps.noteThreshold(h.threshold())
				for ness < len(curs) && prefixUB[ness]*boundSlack < h.threshold() {
					ness++
				}
			}
		} else {
			ps.skipped()
		}
	}
	if ps != nil {
		ps.NonEssential = ness
	}
	return h.sorted()
}

// ResultIDs returns the result documents as ascending DocIDs — the sorted
// universe form the expansion pipeline consumes — without materializing a
// set.
func ResultIDs(results []Result) []document.DocID {
	ids := make([]document.DocID, len(results))
	for i, r := range results {
		ids[i] = r.Doc
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
