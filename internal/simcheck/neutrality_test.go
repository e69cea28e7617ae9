package simcheck

import (
	"reflect"
	"testing"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/netmon"
)

// neutralityScenario is the fixed case the observer-neutrality dimension
// exercises: flat topology, mixed TCP+UDP, mapped on TOP2 so k=4 hosts
// flows that cross engine boundaries.
func neutralityScenario() Scenario {
	return Scenario{
		Seed: 11, Routers: 40, Hosts: 30,
		TCPFlows: 10, UDPSends: 10,
		Horizon: 150 * des.Millisecond, Approach: core.TOP2, Ks: []int{4},
	}
}

// TestCheckNeutrality: attaching the netmon plane perturbs nothing — the
// instrumented sequential and k=4 observations match the uninstrumented
// reference byte for byte, the sampled span sets agree across
// partitionings, and every sampled path walks the route table.
func TestCheckNeutrality(t *testing.T) {
	if testing.Short() {
		t.Skip("neutrality oracle run skipped in -short")
	}
	rep, err := planOf(t, neutralityScenario()).Neutrality(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.DivsSeq {
		t.Errorf("instrumented sequential run diverged: %v", d)
	}
	for _, d := range rep.DivsPar {
		t.Errorf("instrumented k=4 run diverged: %v", d)
	}
	if rep.SpansDiverge {
		t.Errorf("sampling depends on the partition: %d seq vs %d par spans",
			rep.SeqSpans, rep.ParSpans)
	}
	if rep.ParSpans == 0 || len(rep.Paths) == 0 {
		t.Fatalf("instrumentation recorded nothing: %s", rep)
	}
	crossEngine := 0
	for _, p := range rep.Paths {
		if p.Err != "" {
			t.Errorf("trace %#x violates the route table: %s", p.Trace, p.Err)
		}
		if len(p.Engines) > 1 {
			crossEngine++
		}
	}
	if rep.Complete == 0 {
		t.Error("no sampled path reached its destination")
	}
	if crossEngine == 0 {
		t.Error("no sampled path crossed an engine boundary at k=4")
	}
}

// TestNeutralityDistributed: the distributed leg of the dimension — an
// instrumented scenario split across loopback workers still matches its
// uninstrumented sequential reference, and the spans merged from the
// worker partials are exactly the spans the in-process k=4 run recorded.
func TestNeutralityDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed neutrality run skipped in -short")
	}
	sc := neutralityScenario()
	sc.NetSample = 3
	rep := fleet(t, planOf(t, sc), 2)
	for _, d := range rep.DivsInProc {
		t.Errorf("in-process k=4: %v", d)
	}
	for _, d := range rep.DivsDist {
		t.Errorf("distributed: %v", d)
	}
	if len(rep.InProc.PathSpans) == 0 {
		t.Fatal("instrumented run sampled no spans")
	}
	if !reflect.DeepEqual(rep.InProc.PathSpans, rep.Dist.PathSpans) {
		t.Fatalf("merged worker spans differ from in-process spans: %d vs %d",
			len(rep.Dist.PathSpans), len(rep.InProc.PathSpans))
	}
	// The merged spans stitch into route-conformant paths, at least one of
	// them crossing a worker boundary (engines 0–1 vs 2–3 at workers=2).
	nw, routes, _, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	stitched := 0
	for _, p := range AuditTraces(nw, routes, rep.Dist.PathSpans) {
		if p.Err != "" {
			t.Errorf("trace %#x: %s", p.Trace, p.Err)
		}
		if p.Complete && (minEngine(p.Engines) < 2 && maxEngine(p.Engines) >= 2) {
			stitched++
		}
	}
	if stitched == 0 {
		t.Error("no complete path stitched across the two workers")
	}
}

func minEngine(es []int) int { return es[0] }
func maxEngine(es []int) int { return es[len(es)-1] }

// TestMergeObservationsPathSpans: worker span partials concatenate and
// come back in canonical order.
func TestMergeObservationsPathSpans(t *testing.T) {
	a := &Observation{PathSpans: []netmon.HopSpan{
		{Trace: 9, Start: 5, Node: 1, Engine: 0},
	}}
	b := &Observation{PathSpans: []netmon.HopSpan{
		{Trace: 9, Start: 2, Node: 0, Engine: 1},
		{Trace: 2, Start: 7, Node: 3, Engine: 1},
	}}
	m, err := MergeObservations([]*Observation{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PathSpans) != 3 {
		t.Fatalf("got %d spans, want 3", len(m.PathSpans))
	}
	if m.PathSpans[0].Trace != 2 || m.PathSpans[1].Start != 2 || m.PathSpans[2].Start != 5 {
		t.Fatalf("spans not in canonical order: %+v", m.PathSpans)
	}
}
