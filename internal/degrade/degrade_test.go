package degrade

import (
	"testing"
	"time"

	"repro/internal/cluster"
)

// load builds a Signals sample with the given queue+in-flight occupancy over
// a capacity of 4 and no error/abandon pressure.
func load(queued, inFlight int64) Signals {
	return Signals{Queued: queued, InFlight: inFlight, Capacity: 4}
}

func TestClimbIsImmediateAndMonotone(t *testing.T) {
	c := New(Config{})
	ramp := []struct {
		sig  Signals
		want Tier
	}{
		{load(0, 1), Tier0},  // p = 0.25
		{load(0, 4), Tier1},  // p = 1.0 → enter T1
		{load(3, 4), Tier2},  // p = 1.75 → T2's enter edge
		{load(4, 4), Tier2},  // p = 2.0 → still T2
		{load(6, 4), Tier3},  // p = 2.5 → T3
		{load(12, 4), Tier4}, // p = 4.0 → T4
		{load(20, 4), Tier4}, // clamped at the top
	}
	prev := Tier0
	for i, step := range ramp {
		got := c.Step(step.sig)
		if got != step.want {
			t.Errorf("step %d: tier %v, want %v", i, got, step.want)
		}
		if got < prev {
			t.Errorf("step %d: tier fell %v → %v during a ramp", i, prev, got)
		}
		prev = got
	}
}

func TestDescentRequiresDwellAndStepsOneRung(t *testing.T) {
	c := New(Config{MinDwell: 3})
	c.Step(load(12, 4)) // straight to T4
	if got := c.Tier(); got != Tier4 {
		t.Fatalf("tier %v, want T4", got)
	}
	// Calm samples: pressure 0 is at or below every exit threshold, but the
	// tier may only fall one rung per MinDwell consecutive calm steps.
	want := []Tier{Tier4, Tier4, Tier3, Tier3, Tier3, Tier2}
	for i, w := range want {
		if got := c.Step(load(0, 0)); got != w {
			t.Errorf("calm step %d: tier %v, want %v", i, got, w)
		}
	}
}

func TestHysteresisBandHoldsTier(t *testing.T) {
	c := New(Config{MinDwell: 2})
	c.Step(load(0, 4)) // p=1.0 → T1
	if got := c.Tier(); got != Tier1 {
		t.Fatalf("tier %v, want T1", got)
	}
	// Pressure oscillating inside T1's hysteresis band (exit 0.5, enter
	// 1.0): neither climbs nor counts as calm.
	for i := 0; i < 10; i++ {
		if got := c.Step(load(0, 3)); got != Tier1 { // p=0.75
			t.Fatalf("band step %d: tier %v, want T1 (no flap)", i, got)
		}
	}
	// A calm streak interrupted by a band sample must restart the dwell.
	c.Step(load(0, 2)) // p=0.5 → calm 1
	c.Step(load(0, 3)) // p=0.75 → calm reset
	c.Step(load(0, 2)) // calm 1 again
	if got := c.Tier(); got != Tier1 {
		t.Fatalf("tier %v, want T1 (dwell not yet met)", got)
	}
	if got := c.Step(load(0, 2)); got != Tier0 { // calm 2 → down
		t.Fatalf("tier %v, want T0 after dwell", got)
	}
}

func TestMaxTierClampsClimbAndAdmit(t *testing.T) {
	c := New(Config{MaxTier: Tier2})
	if got := c.Step(load(40, 4)); got != Tier2 {
		t.Fatalf("tier %v, want clamp at T2", got)
	}
	dec := c.Admit(0)
	if dec.Tier != Tier2 || dec.Shed || dec.CacheOnly {
		t.Fatalf("decision %+v, want plain T2", dec)
	}
}

func TestErrorAndAbandonRatiosAddPressure(t *testing.T) {
	c := New(Config{})
	// Occupancy alone (p=0.5) stays T0; a 30% error ratio adds 0.6 and a
	// 40% abandon ratio 0.4 → p=1.5 → T1.
	sig := load(0, 2)
	sig.ErrorRatio = 0.3
	sig.AbandonRatio = 0.4
	if got := c.Step(sig); got != Tier1 {
		t.Fatalf("tier %v, want T1 under error+abandon pressure", got)
	}
}

func TestAdmitDeadlineEscalation(t *testing.T) {
	c := New(Config{TightDeadline: time.Second})
	if dec := c.Admit(10 * time.Second); dec.Tier != Tier0 {
		t.Fatalf("ample deadline: tier %v, want T0", dec.Tier)
	}
	if dec := c.Admit(500 * time.Millisecond); dec.Tier != Tier2 {
		t.Fatalf("tight deadline: tier %v, want T2", dec.Tier)
	}
	if dec := c.Admit(100 * time.Millisecond); dec.Tier != Tier3 || !dec.CacheOnly {
		t.Fatalf("desperate deadline: %+v, want cache-only T3", dec)
	}
	// Escalation never sheds, and never de-escalates a higher ladder tier.
	c.Step(load(12, 4)) // T4
	if dec := c.Admit(100 * time.Millisecond); !dec.Shed {
		t.Fatalf("ladder T4 must shed regardless of deadline: %+v", dec)
	}
}

func TestDecisionsMatchLadderSpec(t *testing.T) {
	cases := []struct {
		tier Tier
		want Decision
	}{
		{Tier0, Decision{Tier: Tier0}},
		{Tier1, Decision{Tier: Tier1, Floor: cluster.QualityServing}},
		{Tier2, Decision{Tier: Tier2, Floor: cluster.QualityMinimal}},
		{Tier3, Decision{Tier: Tier3, Floor: cluster.QualityMinimal, CacheOnly: true}},
		{Tier4, Decision{Tier: Tier4, Shed: true}},
	}
	for _, tc := range cases {
		c := New(Config{})
		c.tier.Store(int32(tc.tier))
		if got := c.Admit(0); got != tc.want {
			t.Errorf("%v: decision %+v, want %+v", tc.tier, got, tc.want)
		}
	}
}

// TestStepIsPureFunctionOfSignals replays the same signal sequence through
// two controllers and requires identical tier trajectories — the
// wall-clock-free determinism leg.
func TestStepIsPureFunctionOfSignals(t *testing.T) {
	seq := []Signals{
		load(0, 1), load(2, 4), load(6, 4), load(12, 4), load(4, 4),
		load(0, 1), load(0, 0), load(0, 0), load(0, 0), load(0, 0),
		load(9, 4), load(0, 0), load(0, 0),
	}
	a, b := New(Config{}), New(Config{})
	for i, sig := range seq {
		ta, tb := a.Step(sig), b.Step(sig)
		if ta != tb {
			t.Fatalf("step %d: controllers diverged (%v vs %v)", i, ta, tb)
		}
	}
	if sa, sb := a.Snapshot(), b.Snapshot(); sa != sb {
		t.Fatalf("snapshots diverged: %+v vs %+v", sa, sb)
	}
}

func TestSnapshotReportsState(t *testing.T) {
	c := New(Config{MinDwell: 5})
	c.Step(load(4, 4))
	s := c.Snapshot()
	if s.Tier != Tier2 || s.Steps != 1 || s.Transitions != 1 || s.MinDwell != 5 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.Pressure < 1.99 || s.Pressure > 2.01 {
		t.Fatalf("pressure %v, want 2.0", s.Pressure)
	}
	if s.Signals != load(4, 4) {
		t.Fatalf("signals %+v", s.Signals)
	}
}

// BenchmarkAdmissionDecision pins the per-request read side: it must stay
// allocation-free and well under a microsecond, because every expand request
// pays it at admission (gated ≤200ns, +0 allocs in qec-benchdiff).
func BenchmarkAdmissionDecision(b *testing.B) {
	c := New(Config{TightDeadline: time.Second})
	c.Step(load(3, 4))
	b.ReportAllocs()
	b.ResetTimer()
	var d Decision
	for i := 0; i < b.N; i++ {
		d = c.Admit(5 * time.Second)
	}
	_ = d
}
