// Package userstudy simulates the paper's Mechanical Turk evaluation
// (Section 5.2.1, Figures 1–4) with a deterministic synthetic rater pool.
//
// Substitution note: Figures 1–4 come from this simulated rater pool, not
// from human raters. The paper asked 45 human raters to score expanded
// queries individually (1–5 plus an option A/B/C justifying the score) and
// collectively (1–5 plus an option about comprehensiveness
// and diversity). Part 3 of the study found that raters value
// comprehensiveness and diversity; our rater model therefore scores exactly
// the measurable proxies of those notions — per-query relatedness and
// helpfulness, and per-set comprehensiveness and diversity — with per-rater
// bias and jitter. The relative ordering of approaches emerges from the
// proxies, not from hard-coded per-approach numbers.
package userstudy

import (
	"math/rand"
	"sync"
)

// Option is a rater's multiple-choice justification.
type Option byte

// Individual-score options (Figure 2):
//
//	A — "highly related to the search and helpful"
//	B — "related but there are better ones"
//	C — "not related to the search"
//
// Collective-score options (Figure 4):
//
//	A — "not comprehensive and not diverse"
//	B — "either not comprehensive or not diverse"
//	C — "comprehensive and diverse"
const (
	OptionA Option = 'A'
	OptionB Option = 'B'
	OptionC Option = 'C'
)

// Judgment is one rater's verdict: a 1–5 score and an option.
type Judgment struct {
	Score  int
	Option Option
}

// Pool is a reproducible population of raters.
type Pool struct {
	// N is the number of raters (paper: 45).
	N int
	// Seed drives all rater randomness.
	Seed int64

	// memo caches the derived rater population. Historically raters() built
	// N fresh rand.Rands per judgment call, and each jitter source was
	// consulted exactly once before being rebuilt — so seeding the
	// generators (a 607-word state initialization apiece) dominated the
	// whole simulated study (~84% of the Figure 1 benchmark). The first
	// jitter draw per rater is therefore a constant, precomputed here;
	// outputs are bit-identical to the rebuild-per-call behaviour.
	memoMu   sync.Mutex
	memo     []rater
	memoN    int
	memoSeed int64
}

// NewPool returns the paper's 45-rater pool.
func NewPool(seed int64) *Pool { return &Pool{N: 45, Seed: seed} }

// rater is one simulated participant: a leniency bias applied to every
// score and personal thresholds for the option choice.
type rater struct {
	bias    float64 // additive score bias in [-0.5, +0.5]
	jitter  float64 // the rater's per-judgment jitter draw
	optHigh float64 // threshold for the favourable option
	optLow  float64 // threshold below which the harsh option is chosen
}

func (p *Pool) raters() []rater {
	p.memoMu.Lock()
	defer p.memoMu.Unlock()
	if p.memo != nil && p.memoN == p.N && p.memoSeed == p.Seed {
		return p.memo
	}
	rng := rand.New(rand.NewSource(p.Seed))
	out := make([]rater, p.N)
	for i := range out {
		out[i] = rater{
			bias:    (rng.Float64() - 0.5),
			jitter:  rand.New(rand.NewSource(rng.Int63())).Float64(),
			optHigh: 0.68 + 0.12*(rng.Float64()-0.5),
			optLow:  0.30 + 0.12*(rng.Float64()-0.5),
		}
	}
	p.memo, p.memoN, p.memoSeed = out, p.N, p.Seed
	return out
}

func clampScore(s float64) int {
	n := int(s + 0.5)
	if n < 1 {
		return 1
	}
	if n > 5 {
		return 5
	}
	return n
}

// JudgeIndividual returns every rater's judgment of one expanded query,
// given its measurable proxies:
//
//	relatedness — how results-oriented the query is (fraction of the
//	  original results containing the expansion terms); the paper's raters
//	  penalized Google's out-of-corpus suggestions on exactly this ground.
//	helpfulness — the query's F-measure against its best-matching cluster
//	  (how well it isolates one meaning of the original query).
func (p *Pool) JudgeIndividual(relatedness, helpfulness float64) []Judgment {
	quality := 0.45*relatedness + 0.55*helpfulness
	out := make([]Judgment, 0, p.N)
	for _, r := range p.raters() {
		perceived := quality + r.bias*0.2 + (r.jitter-0.5)*0.25
		score := clampScore(1 + 4*perceived)
		var opt Option
		switch {
		case relatedness < r.optLow: // not related to the search at all
			opt = OptionC
			if score > 2 {
				score = 2
			}
		case perceived >= r.optHigh:
			opt = OptionA
		default:
			opt = OptionB
		}
		out = append(out, Judgment{Score: score, Option: opt})
	}
	return out
}

// JudgeCollective returns every rater's judgment of a whole set of expanded
// queries for one user query, given:
//
//	comprehensiveness — rank-weighted coverage of the original result set
//	  by the union of the expanded queries' results.
//	diversity — 1 − mean pairwise overlap of the expanded queries' results.
//
// Option A = neither property holds, B = exactly one holds, C = both hold
// (Figure 4's legend).
func (p *Pool) JudgeCollective(comprehensiveness, diversity float64) []Judgment {
	quality := 0.55*comprehensiveness + 0.45*diversity
	out := make([]Judgment, 0, p.N)
	for _, r := range p.raters() {
		perceived := quality + r.bias*0.2 + (r.jitter-0.5)*0.25
		score := clampScore(1 + 4*perceived)
		compOK := comprehensiveness+r.bias*0.1 >= r.optHigh*0.85
		divOK := diversity+r.bias*0.1 >= r.optHigh*0.85
		var opt Option
		switch {
		case compOK && divOK:
			opt = OptionC
		case compOK || divOK:
			opt = OptionB
		default:
			opt = OptionA
			if score > 2 {
				score = 2
			}
		}
		out = append(out, Judgment{Score: score, Option: opt})
	}
	return out
}

// Summary aggregates a slice of judgments: mean score and the percentage of
// raters choosing each option.
type Summary struct {
	MeanScore float64
	PctA      float64
	PctB      float64
	PctC      float64
	N         int
}

// Summarize aggregates judgments (from one or many queries).
func Summarize(js []Judgment) Summary {
	if len(js) == 0 {
		return Summary{}
	}
	var total float64
	var a, b, c int
	for _, j := range js {
		total += float64(j.Score)
		switch j.Option {
		case OptionA:
			a++
		case OptionB:
			b++
		default:
			c++
		}
	}
	n := float64(len(js))
	return Summary{
		MeanScore: total / n,
		PctA:      100 * float64(a) / n,
		PctB:      100 * float64(b) / n,
		PctC:      100 * float64(c) / n,
		N:         len(js),
	}
}
