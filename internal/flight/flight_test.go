package flight

import (
	"encoding/json"
	"strings"
	"testing"

	"massf/internal/telemetry"
)

// skewedTrace builds windows where engine 1 always does 4× the
// compute of engines 0 and 2, with a Seq gap between windows 2 and 3.
func skewedTrace() []telemetry.WindowRecord {
	var recs []telemetry.WindowRecord
	seq := uint64(0)
	for w := 0; w < 6; w++ {
		if w == 3 {
			seq += 2 // two records evicted
		}
		recs = append(recs, telemetry.WindowRecord{
			Seq: seq, StartNS: int64(w) * 1e6, EndNS: int64(w+1) * 1e6, WallNS: 100_000,
			Events:        []uint64{100, 400, 100},
			RemoteSends:   []uint64{1, 2, 3},
			ComputeNS:     []int64{25_000, 100_000, 25_000},
			BarrierWaitNS: []int64{70_000, 0, 70_000},
			ExchangeNS:    []int64{3_000, 3_000, 3_000},
		})
		seq++
	}
	return recs
}

func TestAnalyzeBoundingEngineAndEfficiency(t *testing.T) {
	rep := Analyze(skewedTrace(), 2)
	if rep.Engines != 3 || rep.WindowsAnalyzed != 6 {
		t.Fatalf("shape: %d engines, %d windows", rep.Engines, rep.WindowsAnalyzed)
	}
	if rep.RecordsMissing != 2 {
		t.Errorf("records missing = %d, want 2", rep.RecordsMissing)
	}
	for _, wa := range rep.Windows {
		if wa.BoundingEngine != 1 {
			t.Errorf("window seq %d bounded by %d, want 1", wa.Seq, wa.BoundingEngine)
		}
		// sum = 150k, max = 100k, n = 3 → 0.5
		if wa.Efficiency < 0.49 || wa.Efficiency > 0.51 {
			t.Errorf("window seq %d efficiency %.3f, want 0.5", wa.Seq, wa.Efficiency)
		}
	}
	if rep.MeanEfficiency < 0.49 || rep.MeanEfficiency > 0.51 {
		t.Errorf("mean efficiency %.3f, want 0.5", rep.MeanEfficiency)
	}
	if len(rep.Stragglers) != 2 {
		t.Fatalf("straggler list has %d entries, want topK=2", len(rep.Stragglers))
	}
	s := rep.Stragglers[0]
	if s.Engine != 1 || s.WindowsBounded != 6 {
		t.Errorf("top straggler %+v, want engine 1 bounding all 6 windows", s)
	}
	// Excess per window: 100k − 50k mean = 50k, ×6 windows.
	if s.ExcessNS != 300_000 {
		t.Errorf("excess = %d, want 300000", s.ExcessNS)
	}
	if s.Events != 2400 || s.RemoteSends != 12 {
		t.Errorf("straggler totals: %d events, %d remote", s.Events, s.RemoteSends)
	}
	// Phase totals: per engine per window compute 25k/100k/25k etc.
	if rep.TotalComputeNS != 6*150_000 {
		t.Errorf("total compute = %d", rep.TotalComputeNS)
	}
	if rep.TotalBarrierNS != 6*140_000 {
		t.Errorf("total barrier = %d", rep.TotalBarrierNS)
	}
}

func TestAnalyzeEventFallback(t *testing.T) {
	// Traces without compute spans (legacy or synthetic) fall back to
	// event counts for the bounding decision.
	recs := []telemetry.WindowRecord{
		{Seq: 0, Events: []uint64{10, 90}},
		{Seq: 1, Events: []uint64{80, 20}},
	}
	rep := Analyze(recs, 0)
	if rep.Windows[0].BoundingEngine != 1 || rep.Windows[1].BoundingEngine != 0 {
		t.Errorf("fallback bounding engines: %d, %d",
			rep.Windows[0].BoundingEngine, rep.Windows[1].BoundingEngine)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	rep := Analyze(nil, 0)
	if rep.Engines != 0 || len(rep.Windows) != 0 || len(rep.Stragglers) != 0 {
		t.Errorf("empty analysis not empty: %+v", rep)
	}
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "empty") {
		t.Errorf("empty report text: %q", sb.String())
	}
}

func TestAttributeRouters(t *testing.T) {
	rep := Analyze(skewedTrace(), 1)
	// Nodes 0,1 on engine 0; nodes 2,3,4 on engine 1 (the straggler).
	part := []int32{0, 0, 1, 1, 1}
	nodeEvents := []uint64{5, 5, 700, 200, 100}
	rep.AttributeRouters(part, nodeEvents, 2)
	s := rep.Stragglers[0]
	if len(s.TopRouters) != 2 {
		t.Fatalf("top routers: %+v", s.TopRouters)
	}
	if s.TopRouters[0].Node != 2 || s.TopRouters[0].Events != 700 {
		t.Errorf("hottest router %+v, want node 2 with 700 events", s.TopRouters[0])
	}
	if share := s.TopRouters[0].Share; share < 0.69 || share > 0.71 {
		t.Errorf("share %.3f, want 0.7", share)
	}
	if len(rep.PerEngine[1].TopRouters) != 2 {
		t.Error("PerEngine entry not annotated")
	}
	// Mismatched inputs are ignored, not fatal.
	rep.AttributeRouters(part, nodeEvents[:3], 2)
}

func TestReportJSONAndText(t *testing.T) {
	rep := Analyze(skewedTrace(), 3)
	rep.AttributeRouters([]int32{1, 1, 0}, []uint64{600, 300, 10}, 5)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.MeanEfficiency != rep.MeanEfficiency || len(back.Windows) != len(rep.Windows) {
		t.Error("JSON round trip lost data")
	}
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"3 engines", "6 windows", "(2 evicted)",
		"parallel efficiency: 0.500",
		"worst window: [0.000, 1.000) ms bounded by engine 1",
		"engine 1 — bounded 6/6 windows",
		"node 0: 600 events",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report text missing %q:\n%s", want, out)
		}
	}
}
