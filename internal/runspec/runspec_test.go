package runspec

import (
	"encoding/json"
	"testing"

	"massf/internal/des"
)

func TestNormalizeDefaults(t *testing.T) {
	var s RunSpec
	s.Normalize()
	if s.Engines != 4 || s.Seconds != 2 || s.Seed != 1 || s.EventCostUS != 15 {
		t.Fatalf("defaults wrong: %+v", s)
	}
	// Explicit values survive.
	s = RunSpec{Engines: 8, Seconds: 0.5, Seed: 7, EventCostUS: 3}
	s.Normalize()
	if s.Engines != 8 || s.Seconds != 0.5 || s.Seed != 7 || s.EventCostUS != 3 {
		t.Fatalf("normalize clobbered explicit values: %+v", s)
	}
}

func TestValidateRanges(t *testing.T) {
	good := RunSpec{Engines: 4, Seconds: 2, Seed: 1, EventCostUS: 15}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []RunSpec{
		{Engines: 0, Seconds: 2},
		{Engines: 2000, Seconds: 2},
		{Engines: 4, Seconds: -1},
		{Engines: 4, Seconds: 4000},
		{Engines: 4, Seconds: 2, RealTimeFactor: -0.5},
		{Engines: 4, Seconds: 2, EventCostUS: -1},
		{Engines: 4, Seconds: 2, SeriesBuckets: -1},
		{Engines: 4, Seconds: 2, FlowFidelity: "fluid"},
		{Engines: 4, Seconds: 2, FluidQuantumUS: -10},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
	for _, fid := range []string{"", FidelityPacket, FidelityHybrid} {
		s := RunSpec{Engines: 4, Seconds: 2, FlowFidelity: fid}
		if err := s.Validate(); err != nil {
			t.Errorf("fidelity %q rejected: %v", fid, err)
		}
	}
}

func TestHybridFidelityKnobs(t *testing.T) {
	s := RunSpec{Engines: 4, Seconds: 2}
	if s.Hybrid() {
		t.Error("zero spec claims hybrid")
	}
	s.FlowFidelity = FidelityPacket
	if s.Hybrid() {
		t.Error("packet fidelity claims hybrid")
	}
	s.FlowFidelity = FidelityHybrid
	if !s.Hybrid() {
		t.Error("hybrid fidelity not reported")
	}
	s.FluidQuantumUS = 500
	if got := s.FluidQuantum(); got != 500*des.Microsecond {
		t.Errorf("FluidQuantum = %v, want 500µs", got)
	}
}

// TestTimeConversions: every float knob converts to the nearest
// nanosecond, not the truncated float product (1.001 s is 1 000 999 999 ns
// truncated). The values bench/ and the goldens use convert as before.
func TestTimeConversions(t *testing.T) {
	cases := []struct {
		s                RunSpec
		horizon, cost, q des.Time
	}{
		{RunSpec{Seconds: 1.5, EventCostUS: 15}, 1500 * des.Millisecond, 15 * des.Microsecond, 0},
		{RunSpec{Seconds: 1.001, EventCostUS: 1.001, FluidQuantumUS: 1.003}, 1_001_000_000, 1001, 1003},
		{RunSpec{Seconds: 0.1, FluidQuantumUS: 500}, 100 * des.Millisecond, 0, 500 * des.Microsecond},
		{RunSpec{Seconds: 0.5}, 500 * des.Millisecond, 0, 0},
		{RunSpec{Seconds: 1}, des.Second, 0, 0},
		{RunSpec{Seconds: 2}, 2 * des.Second, 0, 0},
		{RunSpec{Seconds: 3600}, 3600 * des.Second, 0, 0},
	}
	for _, c := range cases {
		if got := c.s.Horizon(); got != c.horizon {
			t.Errorf("Horizon(%g s) = %d ns, want %d", c.s.Seconds, got, c.horizon)
		}
		if got := c.s.EventCost(); got != c.cost {
			t.Errorf("EventCost(%g µs) = %d ns, want %d", c.s.EventCostUS, got, c.cost)
		}
		if got := c.s.FluidQuantum(); got != c.q {
			t.Errorf("FluidQuantum(%g µs) = %d ns, want %d", c.s.FluidQuantumUS, got, c.q)
		}
	}
}

// The JSON field names are a wire format (runctl's HTTP API flattens an
// embedded RunSpec into its Spec); renaming a tag is a breaking change.
func TestWireFieldNames(t *testing.T) {
	s := RunSpec{Engines: 2, Seconds: 0.5, Seed: 3, RealTimeFactor: 1,
		EventCostUS: 10, SeriesBuckets: 64}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"engines", "seconds", "seed", "realtime", "event_cost_us", "series_buckets"} {
		if _, ok := m[key]; !ok {
			t.Errorf("marshaled spec lacks %q: %s", key, b)
		}
	}
	if _, ok := m["Telemetry"]; ok {
		t.Errorf("telemetry leaked into the wire format: %s", b)
	}
}
