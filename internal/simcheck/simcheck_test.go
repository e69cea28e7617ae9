package simcheck

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/netsim"
	"massf/internal/pdes"
)

// TestScenarioGenerationDeterministic: the same seed always derives the
// same scenario — a failing seed is a complete reproducer.
func TestScenarioGenerationDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := NewScenario(seed), NewScenario(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: %+v != %+v", seed, a, b)
		}
	}
}

// TestOraclePassesRandomScenarios runs the full oracle on a handful of
// generated scenarios (the CLI sweep covers ≥100; this keeps tier-1
// fast). Every parallel run must match the sequential reference byte for
// byte and record zero invariant violations.
func TestOraclePassesRandomScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep skipped in -short")
	}
	for seed := int64(1); seed <= 6; seed++ {
		sc := NewScenario(seed)
		rep, err := Check(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if rep.Ref.TotalEvents == 0 {
			t.Fatalf("%s: reference run executed no events", sc)
		}
		for i := range rep.Runs {
			kr := &rep.Runs[i]
			if len(kr.Violations) > 0 {
				t.Errorf("%s k=%d: %d invariant violation(s), first: %v",
					sc, kr.K, len(kr.Violations), kr.Violations[0])
			}
			if len(kr.Divergences) > 0 {
				t.Errorf("%s k=%d: %d divergence(s), first: %v",
					sc, kr.K, len(kr.Divergences), kr.Divergences[0])
			}
		}
	}
}

// TestDiffReportsEveryFieldClass: scalar, per-element, and time-valued
// differences are all reported, and time-valued ones carry the earliest
// attributable simulated time so DivergentWindow can locate them.
func TestDiffReportsEveryFieldClass(t *testing.T) {
	seq := &Observation{
		TotalEvents: 100, DeliveredBits: 8000,
		NodeEvents: []uint64{5, 6, 7},
		TCPDone:    []des.Time{10 * des.Millisecond, 20 * des.Millisecond},
	}
	par := &Observation{
		TotalEvents: 101, DeliveredBits: 8000,
		NodeEvents: []uint64{5, 9, 7},
		TCPDone:    []des.Time{10 * des.Millisecond, 26 * des.Millisecond},
	}
	ds := Diff(seq, par)
	byField := map[string]Divergence{}
	for _, d := range ds {
		byField[d.Field] = d
	}
	if len(ds) != 3 {
		t.Fatalf("got %d divergences %v, want 3", len(ds), ds)
	}
	if d := byField["TotalEvents"]; d.Index != -1 || d.Seq != "100" || d.Par != "101" {
		t.Errorf("TotalEvents divergence wrong: %+v", d)
	}
	if d := byField["NodeEvents"]; d.Index != 1 {
		t.Errorf("NodeEvents divergence at index %d, want 1", d.Index)
	}
	if d := byField["TCPDone"]; d.At != 20*des.Millisecond {
		t.Errorf("TCPDone divergence At = %v, want 20ms (earlier of the two)", d.At)
	}
	kr := KRun{Window: des.Millisecond, Divergences: ds}
	if w := kr.DivergentWindow(); w != 20 {
		t.Errorf("DivergentWindow = %d, want 20", w)
	}
	if ds := Diff(seq, seq); len(ds) != 0 {
		t.Errorf("self-diff produced %v", ds)
	}
	// A time-valued list that is merely shorter — a fleet whose script lost a
	// flow — agrees on every shared index and still diverges, by length.
	ref := &Observation{TCPDone: []des.Time{des.Millisecond, 2 * des.Millisecond, 3 * des.Millisecond}}
	short := &Observation{TCPDone: ref.TCPDone[:2]}
	ds = Diff(ref, short)
	if len(ds) != 1 || ds[0].Field != "TCPDone.len" || ds[0].Seq != "3" || ds[0].Par != "2" {
		t.Errorf("3 vs 2 TCPDone entries: got %v, want one TCPDone.len divergence 3 vs 2", ds)
	}
}

// TestInjectedViolationReported: an intentionally injected lookahead
// violation inside a scenario's parallel run is detected and reported with
// the offending window, engine, and (at, src, seq) event triple — the
// end-to-end path the oracle relies on to turn causality bugs into
// reports instead of silent stat drift.
func TestInjectedViolationReported(t *testing.T) {
	sc := NewScenario(1)
	sc.HTTPClients, sc.HTTPServers = 0, 0
	net, routes, hosts, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapOnly(net, core.TOP2, 4, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	window := m.Window()
	inv := &pdes.Invariants{}
	s, err := netsim.New(netsim.Config{
		Net: net, Routes: routes, Part: m.Part, Engines: 4,
		Window: window, End: 4 * window, Seed: sc.Seed, Invariants: inv,
	})
	if err != nil {
		t.Fatal(err)
	}
	// From a host's owning engine, inside window 0, ship an event to a
	// different engine timestamped before window 0 ends.
	srcEng := s.EngineOf(hosts[0])
	dstEng := (srcEng + 1) % 4
	injectAt := window / 4
	s.ScheduleAt(hosts[0], injectAt, func(now des.Time) {
		s.Engine(srcEng).InjectLookaheadViolation(dstEng, now+1, func(des.Time) {})
	})
	s.Run()
	vs := inv.Violations()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1: %v", len(vs), vs)
	}
	v := vs[0]
	if v.Kind != pdes.ViolationLookahead {
		t.Errorf("Kind = %v, want lookahead", v.Kind)
	}
	if v.Window != 0 || v.Engine != dstEng || v.Src != srcEng {
		t.Errorf("violation window=%d engine=%d src=%d, want 0/%d/%d",
			v.Window, v.Engine, v.Src, dstEng, srcEng)
	}
	if v.At != injectAt+1 || v.WindowEnd != window {
		t.Errorf("violation at=%v windowEnd=%v, want %v/%v", v.At, v.WindowEnd, injectAt+1, window)
	}
}

// TestShrinkFindsLocalMinimum drives the shrinker with a synthetic failure
// predicate and checks it reduces every reducible axis while preserving
// the failure.
func TestShrinkFindsLocalMinimum(t *testing.T) {
	sc := NewScenario(1) // flat, tcp=24 udp=14 http=3 horizon=456ms ks=[2 4 8]
	calls := 0
	fails := func(c Scenario) bool {
		calls++
		return c.UDPSends >= 4 && c.Horizon >= 100*des.Millisecond
	}
	min := Shrink(sc, fails, 200)
	if !fails(min) {
		t.Fatal("shrunk scenario no longer fails")
	}
	if len(min.Ks) != 1 {
		t.Errorf("Ks = %v, want a single engine count", min.Ks)
	}
	if min.UDPSends < 4 || min.UDPSends >= 8 {
		t.Errorf("UDPSends = %d, want minimal value in [4,8)", min.UDPSends)
	}
	if min.Horizon < 100*des.Millisecond || min.Horizon >= 200*des.Millisecond {
		t.Errorf("Horizon = %v, want minimal value in [100ms,200ms)", min.Horizon)
	}
	if min.TCPFlows != 0 || min.HTTPClients != 0 {
		t.Errorf("irrelevant axes not reduced: tcp=%d http=%d", min.TCPFlows, min.HTTPClients)
	}
	if calls > 201 {
		t.Errorf("predicate called %d times, budget was 200", calls)
	}
}

// TestTraceRunWritesChromeTrace: the flight-recorder dump for a (scenario,
// k) pair produces a parseable Chrome trace-event file with per-window
// events.
func TestTraceRunWritesChromeTrace(t *testing.T) {
	sc := NewScenario(1)
	sc.Ks = []int{2}
	sc.TCPFlows, sc.UDPSends = 4, 4
	sc.HTTPClients, sc.HTTPServers = 0, 0
	sc.Horizon = 100 * des.Millisecond
	var buf bytes.Buffer
	if err := planOf(t, sc).Trace(2, &buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		Metadata    map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace contains no events")
	}
	if doc.Metadata["tool"] != "simcheck" || doc.Metadata["k"] != "2" {
		t.Errorf("trace metadata = %v", doc.Metadata)
	}
}

// TestShrinkRespectsBudget: a zero budget returns the scenario unchanged.
func TestShrinkRespectsBudget(t *testing.T) {
	sc := NewScenario(2)
	got := Shrink(sc, func(Scenario) bool { t.Fatal("predicate called"); return false }, 0)
	if !reflect.DeepEqual(got, sc) {
		t.Errorf("zero-budget shrink changed the scenario")
	}
}

// TestChurnEquivalence is the fault-plane conformance dimension: the same
// seeded fault script injected into the reference and every parallel run
// must leave all observables — including per-fault loss attribution —
// byte-identical across engine counts.
func TestChurnEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("churn oracle sweep skipped in -short")
	}
	churned := 0
	for seed := int64(1); seed <= 5; seed++ {
		sc := Churn(NewScenario(seed))
		rep, err := Check(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if len(rep.Ref.FaultDrops) > 0 {
			churned++
		}
		for i := range rep.Runs {
			kr := &rep.Runs[i]
			for _, v := range kr.Violations {
				t.Errorf("%s k=%d: violation %v", sc, kr.K, v)
			}
			for _, d := range kr.Divergences {
				t.Errorf("%s k=%d: divergence %v", sc, kr.K, d)
			}
		}
	}
	if churned == 0 {
		t.Error("no swept scenario actually compiled a fault plane")
	}
}

// TestChurnScenarioJSONRoundTrip: a churn scenario (and its materialized
// explicit-script form) survives the -scenario-json wire format.
func TestChurnScenarioJSONRoundTrip(t *testing.T) {
	sc := Churn(NewScenario(3))
	b, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var got Scenario
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sc) {
		t.Fatalf("churn scenario round trip:\n got %+v\nwant %+v", got, sc)
	}
	mat, err := sc.Materialized()
	if err != nil {
		t.Fatal(err)
	}
	if mat.Faults == nil || mat.ChurnEvents != 0 {
		t.Fatalf("Materialized did not freeze the script: %+v", mat)
	}
	b, err = json.Marshal(mat)
	if err != nil {
		t.Fatal(err)
	}
	var got2 Scenario
	if err := json.Unmarshal(b, &got2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, mat) {
		t.Fatal("materialized scenario did not survive JSON")
	}
	// The frozen script must reproduce the seeded run exactly.
	if !testing.Short() {
		a, err := Check(sc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Check(mat)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Ref, b.Ref) {
			t.Fatal("materialized scenario observes differently than its seeded form")
		}
	}
}
