// Package runspec defines RunSpec, the run-level knobs of the launch path:
// experiments.Scenario embeds it (so the daemon's HTTP wire format stays
// flat), and Scenario.Prepare, the launch path's build step, reads it from
// there; Setup.BuildSim, the benchmark's wrapper, takes one directly. A
// RunSpec is normalized and validated once, here; the scenario adds only
// what is genuinely its own (topology sources, workload names).
package runspec

import (
	"fmt"
	"time"

	"massf/internal/des"
	"massf/internal/faults"
	"massf/internal/telemetry"
)

// RunSpec holds the run-level knobs shared by every execution surface.
// The zero value is usable after Normalize; Validate rejects what no
// surface can execute.
type RunSpec struct {
	// Engines is the simulated engine-node count. Default 4.
	Engines int `json:"engines,omitempty"`
	// Seconds is the simulated horizon. Default 2.
	Seconds float64 `json:"seconds,omitempty"`
	// Seed is the simulation seed. Default 1.
	Seed int64 `json:"seed,omitempty"`
	// RealTimeFactor paces the run against the wall clock (0 = as fast
	// as possible) — the paper's online-simulation mode.
	RealTimeFactor float64 `json:"realtime,omitempty"`
	// EventCostUS is the modeled per-event cost in microseconds.
	// Default 15.
	EventCostUS float64 `json:"event_cost_us,omitempty"`
	// Priority is the scheduling class a service daemon runs this spec
	// under: "high" preempts the queue order of "normal" (the default),
	// which preempts "low". Within a class, admission order wins. Batch
	// surfaces (massf, simcheck) ignore it.
	Priority string `json:"priority,omitempty"`
	// Weight is the number of worker-pool slots the run occupies while
	// executing (default 1; clamped to the pool size at admission), the
	// resource-packing knob for scheduling heavy runs next to light ones.
	Weight int `json:"weight,omitempty"`
	// WallLimitMS > 0 bounds the run's execution wall-clock time; a run
	// that exceeds it is stopped through the cancellation path and ends
	// failed, with the limit in its error.
	WallLimitMS float64 `json:"wall_limit_ms,omitempty"`
	// MemLimitMB > 0 bounds the executing process's live heap while the
	// run executes, sampled periodically; exceeding it stops the run like
	// WallLimitMS. On a daemon executing runs concurrently the sample is
	// process-wide, so treat it as a safety net, not an allocator.
	MemLimitMB float64 `json:"mem_limit_mb,omitempty"`
	// Faults, when non-nil, is the scripted fault plane injected into the
	// run: timed link/router churn with modeled OSPF/BGP reconvergence.
	// The script is structurally validated here; target ids are checked
	// against the concrete topology when the plane is compiled.
	Faults *faults.Script `json:"faults,omitempty"`
	// Telemetry receives live observability data (nil disables it). Use
	// one SimTelemetry per run. Never serialized.
	Telemetry *telemetry.SimTelemetry `json:"-"`
	// NetMon attaches the network observability plane: per-link windowed
	// utilization/queue/drop series and per-flow TCP records. Off by
	// default — the disabled plane costs one nil check per record point.
	NetMon bool `json:"netmon,omitempty"`
	// NetSample > 0 additionally samples every NetSample-th injected
	// packet for cross-engine path tracing (implies NetMon).
	NetSample int `json:"net_sample,omitempty"`

	// FlowFidelity selects the traffic fidelity: "packet" (or empty) runs
	// everything packet-level; "hybrid" models bulk transfers analytically
	// on the fluid plane (max-min fair-share rates per link-share epoch)
	// while designated foreground traffic stays packet-level. Surfaces
	// that build workloads decide the foreground/background split; see
	// experiments.Prepare and simcheck's FluidMinBytes.
	FlowFidelity string `json:"flow_fidelity,omitempty"`
	// FluidQuantumUS > 0 batches fluid rate recomputation onto a grid of
	// this many microseconds (the scale knob for million-flow hybrid
	// runs); 0 recomputes exactly at every flow start/finish.
	FluidQuantumUS float64 `json:"fluid_quantum_us,omitempty"`
}

// Fidelity values for FlowFidelity.
const (
	FidelityPacket = "packet"
	FidelityHybrid = "hybrid"
)

// Priority classes for Priority.
const (
	PriorityHigh   = "high"
	PriorityNormal = "normal"
	PriorityLow    = "low"
)

// PriorityRank maps the spec's priority class to its scheduling rank
// (higher runs first). The zero value ("" after Normalize is "normal")
// ranks 1.
func (s *RunSpec) PriorityRank() int {
	switch s.Priority {
	case PriorityHigh:
		return 2
	case PriorityLow:
		return 0
	default:
		return 1
	}
}

// WallLimit returns the wall-clock execution bound as a duration (0 =
// unlimited).
func (s *RunSpec) WallLimit() time.Duration {
	return time.Duration(s.WallLimitMS * float64(time.Millisecond))
}

// MemLimitBytes returns the heap bound in bytes (0 = unlimited).
func (s *RunSpec) MemLimitBytes() uint64 {
	return uint64(s.MemLimitMB * float64(1<<20))
}

// Hybrid reports whether the spec requests hybrid flow/packet fidelity.
func (s *RunSpec) Hybrid() bool { return s.FlowFidelity == FidelityHybrid }

// FluidQuantum returns the fluid rate-epoch quantum as engine time.
func (s *RunSpec) FluidQuantum() des.Time {
	return des.FromFloat(s.FluidQuantumUS, des.Microsecond)
}

// Normalize applies defaults in place.
func (s *RunSpec) Normalize() {
	if s.Engines == 0 {
		s.Engines = 4
	}
	if s.Seconds == 0 {
		s.Seconds = 2
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.EventCostUS == 0 {
		s.EventCostUS = 15
	}
	if s.Priority == "" {
		s.Priority = PriorityNormal
	}
	if s.Weight == 0 {
		s.Weight = 1
	}
}

// Validate rejects out-of-range knobs before any work starts.
func (s *RunSpec) Validate() error {
	if s.Engines < 1 || s.Engines > 1024 {
		return fmt.Errorf("runspec: engines %d out of range [1, 1024]", s.Engines)
	}
	if s.Seconds < 0 || s.Seconds > 3600 {
		return fmt.Errorf("runspec: seconds %g out of range (0, 3600]", s.Seconds)
	}
	if s.RealTimeFactor < 0 {
		return fmt.Errorf("runspec: realtime factor must be ≥ 0")
	}
	if s.EventCostUS < 0 {
		return fmt.Errorf("runspec: event cost must be ≥ 0")
	}
	switch s.Priority {
	case "", PriorityHigh, PriorityNormal, PriorityLow:
	default:
		return fmt.Errorf("runspec: priority %q (want %q, %q or %q)",
			s.Priority, PriorityHigh, PriorityNormal, PriorityLow)
	}
	if s.Weight < 0 {
		return fmt.Errorf("runspec: weight must be ≥ 0")
	}
	if s.WallLimitMS < 0 {
		return fmt.Errorf("runspec: wall-clock limit must be ≥ 0")
	}
	if s.MemLimitMB < 0 {
		return fmt.Errorf("runspec: memory limit must be ≥ 0")
	}
	if s.NetSample < 0 {
		return fmt.Errorf("runspec: net sample stride must be ≥ 0")
	}
	switch s.FlowFidelity {
	case "", FidelityPacket, FidelityHybrid:
	default:
		return fmt.Errorf("runspec: flow fidelity %q (want %q or %q)",
			s.FlowFidelity, FidelityPacket, FidelityHybrid)
	}
	if s.FluidQuantumUS < 0 {
		return fmt.Errorf("runspec: fluid quantum must be ≥ 0")
	}
	if err := s.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// Horizon returns the simulated horizon as engine time.
func (s *RunSpec) Horizon() des.Time {
	return des.FromFloat(s.Seconds, des.Second)
}

// EventCost returns the modeled per-event cost as engine time.
func (s *RunSpec) EventCost() des.Time {
	return des.FromFloat(s.EventCostUS, des.Microsecond)
}
