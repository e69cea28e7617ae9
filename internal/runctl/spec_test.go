package runctl

import (
	"encoding/json"
	"strings"
	"testing"
)

// A pre-RunSpec client body — every knob at the top level — must keep
// decoding into the embedded spec, and a marshaled Spec must stay flat:
// the embedding is an internal refactor, not a wire-format change.
func TestSpecWireFormatUnchanged(t *testing.T) {
	legacy := `{
		"name": "old-client",
		"flat": {"routers": 40, "hosts": 20},
		"approach": "TOP2",
		"engines": 8,
		"seconds": 0.5,
		"app": "scalapack",
		"seed": 7,
		"realtime": 1.5,
		"event_cost_us": 10
	}`
	var spec Spec
	if err := json.Unmarshal([]byte(legacy), &spec); err != nil {
		t.Fatal(err)
	}
	if spec.Engines != 8 || spec.Seconds != 0.5 || spec.Seed != 7 || spec.EventCostUS != 10 {
		t.Fatalf("legacy body decoded wrong: %+v", spec)
	}
	if spec.Name != "old-client" || spec.Approach != "TOP2" || spec.App != "scalapack" {
		t.Fatalf("spec-only fields decoded wrong: %+v", spec)
	}

	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"RunSpec"`) {
		t.Fatalf("embedded spec leaked as a nested object: %s", b)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{"engines": 8, "seconds": 0.5, "seed": 7, "realtime": 1.5, "event_cost_us": 10} {
		if got, ok := m[key]; !ok || got != want {
			t.Errorf("marshaled spec has top-level %q = %v, want %v: %s", key, got, want, b)
		}
	}
}

// Spec validation rejects out-of-range run knobs through the shared
// runspec checks.
func TestSpecValidateDelegates(t *testing.T) {
	spec := Spec{Flat: &FlatSpec{Routers: 10, Hosts: 5}}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		t.Fatalf("normalized default spec rejected: %v", err)
	}
	spec.Engines = 5000
	if err := spec.Validate(); err == nil {
		t.Fatal("engines=5000 accepted")
	} else if !strings.Contains(err.Error(), "engines") {
		t.Fatalf("wrong error for engines: %v", err)
	}
}
