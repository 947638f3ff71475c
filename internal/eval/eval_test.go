package eval

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/document"
)

// set builds a set over the dense universe 0..n-1.
func set(n int, ids ...int) document.BitSet {
	b := document.NewBitSet(n)
	for _, id := range ids {
		b.Add(id)
	}
	return b
}

// measure is MeasureBits with S(cluster) computed from w.
func measure(retrieved, cluster document.BitSet, w []float64) PRF {
	return MeasureBits(retrieved, cluster, w, SBits(cluster, w))
}

func TestMeasurePerfect(t *testing.T) {
	c := set(8, 1, 2, 3)
	got := measure(c.Clone(), c, nil)
	if got.Precision != 1 || got.Recall != 1 || got.F != 1 {
		t.Errorf("Measure = %+v, want all 1", got)
	}
}

func TestMeasureDisjoint(t *testing.T) {
	got := measure(set(8, 1), set(8, 2), nil)
	if got.Precision != 0 || got.Recall != 0 || got.F != 0 {
		t.Errorf("Measure = %+v, want all 0", got)
	}
}

func TestMeasurePartial(t *testing.T) {
	// retrieved {1,2,3,4}, cluster {3,4,5,6}: p = 2/4, r = 2/4, F = 1/2
	got := measure(set(8, 1, 2, 3, 4), set(8, 3, 4, 5, 6), nil)
	if math.Abs(got.Precision-0.5) > 1e-12 || math.Abs(got.Recall-0.5) > 1e-12 ||
		math.Abs(got.F-0.5) > 1e-12 {
		t.Errorf("Measure = %+v", got)
	}
}

func TestMeasureEmptySets(t *testing.T) {
	if got := measure(set(8), set(8, 1), nil); got != (PRF{}) {
		t.Errorf("empty retrieved: %+v", got)
	}
	if got := measure(set(8, 1), set(8), nil); got != (PRF{}) {
		t.Errorf("empty cluster: %+v", got)
	}
	if got := MeasureIDs(nil, []document.DocID{1}, nil); got != (PRF{}) {
		t.Errorf("MeasureIDs, empty retrieved: %+v", got)
	}
	if got := MeasureIDs([]document.DocID{1}, nil, nil); got != (PRF{}) {
		t.Errorf("MeasureIDs, empty universe: %+v", got)
	}
}

func TestMeasureWeighted(t *testing.T) {
	// cluster {0,1}: weight(0)=9, weight(1)=1; retrieve only {0}.
	w := []float64{9, 1}
	got := measure(set(2, 0), set(2, 0, 1), w)
	if got.Precision != 1 {
		t.Errorf("precision = %v", got.Precision)
	}
	if math.Abs(got.Recall-0.9) > 1e-12 {
		t.Errorf("recall = %v, want 0.9 (rank-weighted)", got.Recall)
	}
	// The same through MeasureIDs: universe {10, 20} weighted 9/1, retrieved
	// {10, 30} — doc 30 lies outside the universe and counts 1.
	universe := []document.DocID{10, 20}
	got = MeasureIDs([]document.DocID{10, 30}, universe, Weights{10: 9, 20: 1}.Dense(universe))
	if got.Precision != 0.9 || math.Abs(got.Recall-0.9) > 1e-12 {
		t.Errorf("MeasureIDs = %+v, want precision 0.9, recall 0.9", got)
	}
}

func TestWeightsSFallsBackToOne(t *testing.T) {
	ids := []document.DocID{1, 5, 7}
	// doc 5 absent from the weights and doc 7 scored 0 both count as 1
	dense := Weights{1: 2, 7: 0}.Dense(ids)
	if want := []float64{2, 1, 1}; !slices.Equal(dense, want) {
		t.Fatalf("Dense = %v, want %v", dense, want)
	}
	if got := SBits(set(3, 0, 1), dense); got != 3 {
		t.Errorf("S = %v, want 3", got)
	}
	var nilW Weights
	if nilW.Dense(ids) != nil {
		t.Error("nil Weights must resolve to a nil (unranked) table")
	}
	if got := SBits(set(3, 0, 1, 2), nil); got != 3 {
		t.Errorf("nil S = %v, want 3", got)
	}
}

func TestWeightedEqualsUnweightedWhenUniform(t *testing.T) {
	r := set(8, 1, 2, 5)
	c := set(8, 2, 5, 7)
	w := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	a, b := measure(r, c, w), measure(r, c, nil)
	if math.Abs(a.F-b.F) > 1e-12 {
		t.Errorf("uniform weighted F %v != unweighted F %v", a.F, b.F)
	}
}

func TestFMeasureHarmonic(t *testing.T) {
	if got := FMeasure(1, 0.5); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("FMeasure(1, 0.5) = %v", got)
	}
	if FMeasure(0, 0) != 0 {
		t.Error("FMeasure(0,0) should be 0")
	}
}

func TestScoreEq1(t *testing.T) {
	// harmonic mean of {0.5, 1}: 2 / (2 + 1) = 2/3
	if got := Score([]float64{0.5, 1}); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("Score = %v", got)
	}
	if got := Score([]float64{0.8}); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("single-query Score = %v", got)
	}
}

func TestScoreZeroFGivesZero(t *testing.T) {
	if got := Score([]float64{0.9, 0}); got != 0 {
		t.Errorf("Score with a zero F = %v, want 0", got)
	}
	if got := Score(nil); got != 0 {
		t.Errorf("Score(nil) = %v, want 0", got)
	}
}

func TestComprehensiveness(t *testing.T) {
	half := []document.BitSet{set(4, 0), set(4, 1)}
	if got := Comprehensiveness(half, 4, nil); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Comprehensiveness = %v, want 0.5", got)
	}
	full := []document.BitSet{set(4, 0, 1), set(4, 2, 3)}
	if got := Comprehensiveness(full, 4, nil); got != 1 {
		t.Errorf("full coverage = %v", got)
	}
	if got := Comprehensiveness(nil, 0, nil); got != 0 {
		t.Errorf("empty universe = %v", got)
	}
	// Rank weights: covering the heavy document is most of the mass.
	if got := Comprehensiveness([]document.BitSet{set(2, 0)}, 2, []float64{3, 1}); got != 0.75 {
		t.Errorf("weighted coverage = %v, want 0.75", got)
	}
}

func TestDiversity(t *testing.T) {
	disjoint := []document.BitSet{set(5, 1, 2), set(5, 3, 4)}
	if got := Diversity(disjoint); got != 1 {
		t.Errorf("disjoint diversity = %v", got)
	}
	identical := []document.BitSet{set(5, 1, 2), set(5, 1, 2)}
	if got := Diversity(identical); got != 0 {
		t.Errorf("identical diversity = %v", got)
	}
	if got := Diversity([]document.BitSet{set(5, 1)}); got != 1 {
		t.Errorf("single set diversity = %v", got)
	}
	empties := []document.BitSet{set(5), set(5)}
	if got := Diversity(empties); got != 1 {
		t.Errorf("two empty sets diversity = %v", got)
	}
}

func genSet(ids []uint8) document.BitSet {
	s := document.NewBitSet(24)
	for _, id := range ids {
		s.Add(int(id % 24))
	}
	return s
}

// Property: all measures lie in [0,1]; F <= 2·min(P,R)/(anything) ... more
// precisely F <= min(2P, 2R) and F <= max(P, R).
func TestMeasurePropertyBounds(t *testing.T) {
	prop := func(rs, cs []uint8, ws []uint8) bool {
		r, c := genSet(rs), genSet(cs)
		var w []float64
		if len(ws) > 0 {
			w = make([]float64, 24)
			for i := range w {
				w[i] = float64(ws[i%len(ws)]%10) + 0.5
			}
		}
		m := measure(r, c, w)
		eps := 1e-9
		if m.Precision < -eps || m.Precision > 1+eps ||
			m.Recall < -eps || m.Recall > 1+eps ||
			m.F < -eps || m.F > 1+eps {
			return false
		}
		if m.F > 2*m.Precision+eps || m.F > 2*m.Recall+eps {
			return false
		}
		return m.F <= math.Max(m.Precision, m.Recall)+eps
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: the Eq. 1 harmonic mean is <= the minimum F-measure... actually
// harmonic mean lies between min and max.
func TestScorePropertyBetweenMinMax(t *testing.T) {
	prop := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		fs := make([]float64, len(raw))
		min, max := 1.0, 0.0
		for i, x := range raw {
			fs[i] = (float64(x%100) + 1) / 101.0
			if fs[i] < min {
				min = fs[i]
			}
			if fs[i] > max {
				max = fs[i]
			}
		}
		s := Score(fs)
		eps := 1e-9
		return s >= min-eps && s <= max+eps
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: diversity and comprehensiveness lie in [0,1].
func TestDiversityComprehensivenessPropertyBounds(t *testing.T) {
	prop := func(as, bs, us []uint8) bool {
		sets := []document.BitSet{genSet(as), genSet(bs)}
		d := Diversity(sets)
		if d < -1e-9 || d > 1+1e-9 {
			return false
		}
		var w []float64
		if len(us) > 0 {
			w = make([]float64, 24)
			for i := range w {
				w[i] = float64(us[i%len(us)]%10) + 0.5
			}
		}
		c := Comprehensiveness(sets, 24, w)
		return c >= -1e-9 && c <= 1+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
