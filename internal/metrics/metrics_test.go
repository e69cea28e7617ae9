package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"massf/internal/des"
	"massf/internal/pdes"
)

func TestLoadImbalancePerfect(t *testing.T) {
	if got := LoadImbalance([]uint64{100, 100, 100, 100}); got != 0 {
		t.Errorf("uniform load imbalance = %v, want 0", got)
	}
}

func TestLoadImbalanceKnownValue(t *testing.T) {
	// {0, 200}: mean 100, stddev 100 → CV = 1.
	if got := LoadImbalance([]uint64{0, 200}); math.Abs(got-1) > 1e-12 {
		t.Errorf("imbalance = %v, want 1", got)
	}
}

func TestLoadImbalanceEdgeCases(t *testing.T) {
	if LoadImbalance(nil) != 0 {
		t.Error("nil slice should be 0")
	}
	if LoadImbalance([]uint64{0, 0, 0}) != 0 {
		t.Error("all-zero load should be 0")
	}
	if LoadImbalance([]uint64{42}) != 0 {
		t.Error("single engine should be 0")
	}
}

func TestLoadImbalanceOrdering(t *testing.T) {
	balanced := LoadImbalance([]uint64{90, 100, 110, 100})
	skewed := LoadImbalance([]uint64{10, 100, 290, 0})
	if balanced >= skewed {
		t.Errorf("balanced %v not below skewed %v", balanced, skewed)
	}
}

// efficiency is the PE FromStats reports for a run of events at cost per
// event on engines engines that took parallelTimeNS of modeled time.
func efficiency(events uint64, cost des.Time, engines int, parallelTimeNS int64) float64 {
	st := pdes.Stats{Engines: engines, TotalEvents: events, ModeledTimeNS: parallelTimeNS}
	return FromStats("", st, cost).Efficiency
}

func TestParallelEfficiencyIdeal(t *testing.T) {
	// 1000 events at 10µs each = 10ms sequential. 10 engines finishing in
	// exactly 1ms → PE = 1.
	pe := efficiency(1000, 10*des.Microsecond, 10, int64(des.Millisecond))
	if math.Abs(pe-1) > 1e-12 {
		t.Errorf("ideal PE = %v, want 1", pe)
	}
}

func TestParallelEfficiencyWithOverhead(t *testing.T) {
	// Same work but 2.5ms parallel time → PE = 0.4 (the paper's headline).
	pe := efficiency(1000, 10*des.Microsecond, 10, int64(2500*des.Microsecond))
	if math.Abs(pe-0.4) > 1e-12 {
		t.Errorf("PE = %v, want 0.4", pe)
	}
}

func TestParallelEfficiencyDegenerate(t *testing.T) {
	if efficiency(10, des.Microsecond, 0, 100) != 0 {
		t.Error("0 engines should give 0")
	}
	if efficiency(10, des.Microsecond, 4, 0) != 0 {
		t.Error("0 time should give 0")
	}
}

func TestFromStats(t *testing.T) {
	st := pdes.Stats{
		Engines:       4,
		Window:        2 * des.Millisecond,
		TotalEvents:   4000,
		EngineEvents:  []uint64{1000, 1000, 1000, 1000},
		ModeledTimeNS: int64(40 * des.Millisecond),
	}
	r := FromStats("HPROF", st, 10*des.Microsecond)
	if r.Approach != "HPROF" {
		t.Error("approach not propagated")
	}
	if r.AchievedMLLms != 2.0 {
		t.Errorf("MLL = %v ms, want 2", r.AchievedMLLms)
	}
	if r.Imbalance != 0 {
		t.Errorf("imbalance = %v, want 0", r.Imbalance)
	}
	// Tseq = 4000 × 10µs = 40ms; PE = 40ms/(4×40ms) = 0.25.
	if math.Abs(r.Efficiency-0.25) > 1e-12 {
		t.Errorf("PE = %v, want 0.25", r.Efficiency)
	}
	if r.SimTimeSec != 0.04 {
		t.Errorf("SimTimeSec = %v, want 0.04", r.SimTimeSec)
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(100, 50); got != 0.5 {
		t.Errorf("Improvement = %v, want 0.5", got)
	}
	if got := Improvement(0, 50); got != 0 {
		t.Errorf("Improvement from 0 = %v, want 0", got)
	}
	if got := Improvement(50, 100); got != -1 {
		t.Errorf("regression = %v, want -1", got)
	}
}

// Property: imbalance is scale-invariant (multiplying all loads by a
// constant does not change it) and non-negative.
func TestQuickImbalanceScaleInvariant(t *testing.T) {
	f := func(loads []uint16, mul uint8) bool {
		if len(loads) == 0 {
			return true
		}
		m := uint64(mul%7) + 2
		a := make([]uint64, len(loads))
		b := make([]uint64, len(loads))
		for i, l := range loads {
			a[i] = uint64(l)
			b[i] = uint64(l) * m
		}
		ia, ib := LoadImbalance(a), LoadImbalance(b)
		return ia >= 0 && math.Abs(ia-ib) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: PE never exceeds 1 when parallel time ≥ the per-engine share
// of sequential work (no superlinear speedup in this model).
func TestQuickPEBounded(t *testing.T) {
	f := func(events uint32, engines uint8) bool {
		n := int(engines%16) + 1
		ev := uint64(events%100000) + 1
		cost := 10 * des.Microsecond
		minParallel := int64(float64(ev) * float64(cost) / float64(n))
		pe := efficiency(ev, cost, n, minParallel+1)
		return pe <= 1.0000001 && pe > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParallelEfficiencyClamped(t *testing.T) {
	// Degenerate single-engine case: the modeled parallel time can
	// undershoot the Tseq estimate (no sync cost, no remote cost), which
	// would naively report PE > 1.
	events := uint64(1000)
	cost := 15 * des.Microsecond
	short := int64(events) * int64(cost) / 2 // "parallel" time half of Tseq
	if pe := efficiency(events, cost, 1, short); pe != 1 {
		t.Errorf("PE = %v, want clamp to 1", pe)
	}
	// Exactly Tseq on one engine: PE = 1, no clamp needed.
	exact := int64(events) * int64(cost)
	if pe := efficiency(events, cost, 1, exact); pe != 1 {
		t.Errorf("PE = %v, want exactly 1", pe)
	}
	// A realistic multi-engine run stays untouched.
	if pe := efficiency(events, cost, 4, exact); pe != 0.25 {
		t.Errorf("PE = %v, want 0.25", pe)
	}
}

func TestFromStatsFlagsClampedPE(t *testing.T) {
	st := pdes.Stats{
		Engines:       1,
		Window:        des.Millisecond,
		TotalEvents:   1000,
		EngineEvents:  []uint64{1000},
		ModeledTimeNS: int64(1000) * int64(15*des.Microsecond) / 2,
	}
	rep := FromStats("RANDOM", st, 15*des.Microsecond)
	if rep.Efficiency != 1 || !rep.PEClamped {
		t.Errorf("Efficiency = %v, PEClamped = %v; want 1, true", rep.Efficiency, rep.PEClamped)
	}
	st.ModeledTimeNS = int64(1000) * int64(15*des.Microsecond) * 2
	rep = FromStats("RANDOM", st, 15*des.Microsecond)
	if rep.PEClamped {
		t.Error("PEClamped set on a sub-1 efficiency")
	}
	if rep.Efficiency != 0.5 {
		t.Errorf("Efficiency = %v, want 0.5", rep.Efficiency)
	}
}
