// Package degrade is the serving layer's admission-and-degradation
// controller: it maps observed load signals (worker queue depth and
// occupancy, windowed error/abandon ratios, remaining request deadline) onto
// an ordered ladder of serving tiers, so the server sheds *quality* before it
// sheds *requests* — serving quality, then one k-means restart, then
// cache-only answers, and only at the top of the ladder a 503.
//
// The ladder (docs/DEGRADATION.md carries the operator-facing table):
//
//	T0  requested quality untouched
//	T1  quality floor serving (≤2 restarts, early abandonment)
//	T2  quality floor minimal (one restart)
//	T3  expansion-cache only; a miss gets a fast single-cluster fallback
//	T4  shed: 503 with a Retry-After derived from the queue drain rate
//
// Determinism contract: the controller never reads the wall clock. Step is a
// pure function of the sampled Signals it is handed and of the step counter —
// two controllers fed the same Signals sequence land on the same tier at
// every step, which is what makes the degradation ladder testable (the soak
// test replays a ramp and asserts the exact climb). Hysteresis comes from
// separated enter/exit thresholds plus a minimum dwell measured in steps, so
// the tier cannot flap between adjacent levels on a noisy signal.
//
// Admit is the per-request read side: one atomic load plus pure arithmetic,
// no locks, no allocations (BenchmarkAdmissionDecision pins ≤200ns and
// 0 allocs/op through the qec-benchdiff gate) — it sits on every request.
package degrade

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// Tier is one rung of the degradation ladder. Higher is more degraded.
type Tier int32

const (
	// Tier0 serves the requested quality untouched.
	Tier0 Tier = iota
	// Tier1 raises the quality floor to QualityServing.
	Tier1
	// Tier2 raises the quality floor to QualityMinimal: one k-means
	// restart.
	Tier2
	// Tier3 answers from the expansion cache only; misses run a fast
	// single-cluster fallback.
	Tier3
	// Tier4 sheds the request with a 503 + Retry-After.
	Tier4
	// NumTiers is the ladder length.
	NumTiers = int(iota)
)

// String names the tier ("T0".."T4").
func (t Tier) String() string {
	if t < 0 || int(t) >= NumTiers {
		return "T?"
	}
	return tierNames[t]
}

var tierNames = [NumTiers]string{"T0", "T1", "T2", "T3", "T4"}

// Signals is one sampled snapshot of the load inputs the controller keys on.
// The serving layer fills it from its worker-pool gauges and 1m rate windows;
// the controller itself never touches a clock or a counter.
type Signals struct {
	// Queued and InFlight are the worker pool's instantaneous occupancy
	// (requests waiting for a slot, expansions executing).
	Queued, InFlight int64
	// Capacity is the worker pool size (MaxConcurrent).
	Capacity int64
	// ErrorRatio is non-2xx responses per request over the trailing minute.
	ErrorRatio float64
	// AbandonRatio is k-means restarts abandoned per restart launched over
	// the trailing minute — the "per-cluster work is already degrading
	// itself" signal.
	AbandonRatio float64
}

// pressure collapses the signals into one scalar load measure: pool
// saturation (occupancy over capacity — 1.0 means every worker busy and an
// equally long queue would read 2.0) plus weighted error and abandonment
// ratios. The weights make a fully erroring server (ratio 1.0) worth two
// capacities of queue pressure — errors under load usually are timeouts, the
// strongest degrade signal available.
func (s Signals) pressure() float64 {
	cap := s.Capacity
	if cap <= 0 {
		cap = 1
	}
	return float64(s.Queued+s.InFlight)/float64(cap) +
		2*s.ErrorRatio + s.AbandonRatio
}

// Enter/exit pressure thresholds per tier (index 0 unused). A tier is
// entered when pressure reaches enterAt[t] and left — after MinDwell calm
// steps — when pressure falls to exitAt[t] or below. The gaps between enter
// and exit are the hysteresis band: a signal oscillating inside the band
// changes nothing.
var (
	enterAt = [NumTiers]float64{0, 1.0, 1.75, 2.5, 4.0}
	exitAt  = [NumTiers]float64{0, 0.5, 1.0, 1.5, 2.5}
)

// Config configures a Controller. The zero value gets sensible defaults.
type Config struct {
	// MaxTier clamps the ladder: the controller never climbs above it.
	// Useful to forbid shedding (MaxTier: Tier3) or pin full quality
	// (MaxTier: Tier0). Default Tier4.
	MaxTier Tier
	// MinDwell is how many consecutive calm steps (pressure at or below the
	// current tier's exit threshold) must pass before the controller steps
	// down one tier. Climbing is immediate — overload must be answered now,
	// recovery can afford to be cautious. Default 3.
	MinDwell int
	// TightDeadline is the remaining-deadline floor below which Admit
	// escalates an individual request's tier regardless of load: under
	// TightDeadline forces at least Tier2 (cheap serving), under a quarter
	// of it at least Tier3 (cache only) — a request that cannot possibly
	// finish a full pipeline should not occupy a worker trying. 0 disables
	// deadline escalation.
	TightDeadline time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxTier <= 0 || int(c.MaxTier) >= NumTiers {
		c.MaxTier = Tier4
	}
	if c.MinDwell <= 0 {
		c.MinDwell = 3
	}
	return c
}

// Decision is what Admit hands the serving layer for one request: the tier
// plus its pre-resolved knob settings, so the handler applies it without
// consulting the ladder semantics.
type Decision struct {
	// Tier is the rung this request is served at.
	Tier Tier
	// Floor is the lowest quality level the request may run at (levels are
	// ordered by falling effort): the handler raises the request's own level
	// to it — serving at T1, minimal at T2 and T3. The zero value,
	// QualityExact, leaves the request untouched.
	Floor cluster.Quality
	// CacheOnly answers from the expansion cache, with a single-cluster
	// fallback on miss (T3).
	CacheOnly bool
	// Shed rejects the request with 503 + Retry-After (T4).
	Shed bool
}

// decisions pre-resolves every tier's knobs; Admit returns by value from
// this table, so the hot path allocates nothing and branches once.
var decisions = [NumTiers]Decision{
	Tier0: {Tier: Tier0},
	Tier1: {Tier: Tier1, Floor: cluster.QualityServing},
	Tier2: {Tier: Tier2, Floor: cluster.QualityMinimal},
	Tier3: {Tier: Tier3, Floor: cluster.QualityMinimal, CacheOnly: true},
	Tier4: {Tier: Tier4, Shed: true},
}

// Controller holds the ladder state. Step (the write side) is called on the
// serving layer's sampling cadence; Admit (the read side) on every request.
// Both are safe for concurrent use.
type Controller struct {
	cfg Config

	// tier is the published rung, read lock-free by Admit.
	tier atomic.Int32
	// transitions counts tier changes (both directions).
	transitions atomic.Int64

	// mu guards the step-side state below. Step runs on the sampling
	// cadence (seconds apart), so a mutex costs nothing that matters.
	mu       sync.Mutex
	steps    int64   // Step calls so far (the dwell clock)
	calm     int     // consecutive calm steps at the current tier
	pressure float64 // last computed pressure
	last     Signals // last sampled signals
}

// New returns a controller at Tier0.
func New(cfg Config) *Controller {
	return &Controller{cfg: cfg.withDefaults()}
}

// Tier returns the current rung (one atomic load).
func (c *Controller) Tier() Tier { return Tier(c.tier.Load()) }

// Transitions returns how many times the tier has changed.
func (c *Controller) Transitions() int64 { return c.transitions.Load() }

// Step feeds one signal sample into the ladder and returns the resulting
// tier. Climbing: the controller moves straight to the highest tier whose
// enter threshold the pressure reaches (clamped to MaxTier) — overload is
// answered within one step. Descending: pressure must sit at or below the
// current tier's exit threshold for MinDwell consecutive steps, then the
// controller steps down exactly one rung and the dwell restarts. No wall
// clock anywhere: the outcome is a pure function of the Signals sequence.
func (c *Controller) Step(sig Signals) Tier {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.steps++
	c.last = sig
	p := sig.pressure()
	c.pressure = p
	cur := Tier(c.tier.Load())

	// Highest tier entered by this pressure.
	target := Tier0
	for t := Tier(1); t <= c.cfg.MaxTier; t++ {
		if p >= enterAt[t] {
			target = t
		}
	}
	switch {
	case target > cur:
		c.setTier(target)
		c.calm = 0
	case cur > Tier0 && p <= exitAt[cur]:
		c.calm++
		if c.calm >= c.cfg.MinDwell {
			c.setTier(cur - 1)
			c.calm = 0
		}
	default:
		c.calm = 0
	}
	return Tier(c.tier.Load())
}

// setTier publishes a new rung and counts the transition. Caller holds mu.
func (c *Controller) setTier(t Tier) {
	if Tier(c.tier.Load()) == t {
		return
	}
	c.tier.Store(int32(t))
	c.transitions.Add(1)
}

// Admit decides how to serve one request given its remaining deadline. It is
// the per-request hot path: an atomic tier load, the deadline escalation
// comparison, one table lookup — no locks, no allocations. remaining <= 0
// means "no deadline pressure" (the caller has its full budget).
func (c *Controller) Admit(remaining time.Duration) Decision {
	t := Tier(c.tier.Load())
	if td := c.cfg.TightDeadline; td > 0 && remaining > 0 && remaining < td && t < Tier3 {
		// A request that cannot fit a full pipeline run in its remaining
		// budget is escalated individually: cheap serving under the tight
		// threshold, cache-only under a quarter of it. Escalation never
		// reaches Tier4 — deadline pressure is this request's problem, not
		// grounds to shed it.
		esc := Tier2
		if remaining < td/4 {
			esc = Tier3
		}
		if esc > t {
			t = esc
		}
	}
	if t > c.cfg.MaxTier {
		t = c.cfg.MaxTier
	}
	return decisions[t]
}

// Snapshot is a point-in-time dump of the controller's state, for SIGUSR2
// and /stats.
type Snapshot struct {
	// Tier is the current rung; MaxTier the configured clamp.
	Tier, MaxTier Tier
	// Steps counts Step calls; Calm the consecutive calm steps at the
	// current tier; MinDwell the configured descent dwell.
	Steps    int64
	Calm     int
	MinDwell int
	// Transitions counts tier changes.
	Transitions int64
	// Pressure is the last computed pressure scalar; Signals the sample it
	// came from.
	Pressure float64
	Signals  Signals
}

// Snapshot returns the controller's current state.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Snapshot{
		Tier:        Tier(c.tier.Load()),
		MaxTier:     c.cfg.MaxTier,
		Steps:       c.steps,
		Calm:        c.calm,
		MinDwell:    c.cfg.MinDwell,
		Transitions: c.transitions.Load(),
		Pressure:    c.pressure,
		Signals:     c.last,
	}
}
