package telemetry

import "strconv"

// SimTelemetry bundles the instruments one simulation run publishes into.
// Create one per run with New and pass it through netsim.Config.Telemetry
// (or pdes.Config.Telemetry for engine-only use); a nil *SimTelemetry
// disables all instrumentation and the engines only pay a nil check per
// window.
//
// All fields are safe for concurrent use: counters, gauges and histograms
// are atomic, and the Windows ring takes a short mutex on Append (once per
// barrier window, on engine 0 only).
type SimTelemetry struct {
	// Reg owns every instrument below; expose it for Prometheus snapshots.
	Reg *Registry
	// Windows is the per-window trace ring. The parallel engine appends
	// one WindowRecord per executed barrier window and closes the ring
	// when the run finishes, ending any live streams.
	Windows *Ring

	// Engine-level instruments (internal/pdes).
	Events       *Counter   // kernel events processed
	RemoteEvents *Counter   // cross-partition events exchanged
	WindowsDone  *Counter   // barrier windows executed
	SimTimeNS    *Gauge     // simulated-time front, ns
	SetupNS      *Gauge     // scenario build wall time of this worker, ns
	QueueDepth   *Gauge     // total pending events after the latest window
	PeakQueue    *Gauge     // high-water mark of any engine's event queue
	BarrierWait  *Histogram // per-engine barrier wait, ns
	WindowWall   *Histogram // wall time per executed window, ns

	// Network-level instruments (internal/netsim).
	LinkBits      *Counter // bits put on links (utilization numerator)
	Drops         *Counter // packets tail-dropped or unroutable
	Retransmits   *Counter // TCP segments sent more than once
	DeliveredBits *Counter // payload bits delivered to hosts
	FlowsStarted  *Counter
	FlowsDone     *Counter

	// Fault-plane instruments (internal/faults via internal/netsim).
	FaultEvents   *Counter // scripted fault events fired
	FaultDrops    *Counter // packets lost to failed links/nodes
	FaultConverge *Gauge   // modeled reconvergence delay of the latest fault, ns
	FaultRoutesAt *Gauge   // when the latest fault's post-fault routes took effect, ns

	// EngineEvents[e] counts kernel events of engine e (labeled
	// engine="e" in the registry). May be shorter than the engine count
	// if the run was configured with more engines than New was told; the
	// engine skips per-engine counting in that case.
	EngineEvents []*Counter
}

// New creates a SimTelemetry for a run with the given engine count and
// window-ring capacity (≤ 0 for the default).
func New(engines, ringCap int) *SimTelemetry {
	reg := NewRegistry()
	t := &SimTelemetry{
		Reg:     reg,
		Windows: NewRing(ringCap),

		Events:       reg.Counter("massf_sim_events_total", "Kernel events processed across all engines."),
		RemoteEvents: reg.Counter("massf_sim_remote_events_total", "Events exchanged across partitions at barriers."),
		WindowsDone:  reg.Counter("massf_sim_windows_total", "Barrier windows executed."),
		SimTimeNS:    reg.Gauge("massf_sim_time_ns", "Simulated time front in nanoseconds."),
		SetupNS:      reg.Gauge("massf_sim_setup_ns", "Scenario build wall time of this worker, ns."),
		QueueDepth:   reg.Gauge("massf_sim_queue_depth", "Total pending events after the latest window."),
		PeakQueue:    reg.Gauge("massf_sim_queue_depth_peak", "High-water mark of any single engine's event queue."),
		BarrierWait:  reg.Histogram("massf_sim_barrier_wait_ns", "Per-engine wait at the window barrier, ns.", nil),
		WindowWall:   reg.Histogram("massf_sim_window_wall_ns", "Host wall time per executed window, ns.", nil),

		LinkBits:      reg.Counter("massf_net_link_bits_total", "Bits transmitted onto links (utilization numerator)."),
		Drops:         reg.Counter("massf_net_drops_total", "Packets dropped (queue overflow, no route, TTL)."),
		Retransmits:   reg.Counter("massf_net_tcp_retransmits_total", "TCP segments sent more than once."),
		DeliveredBits: reg.Counter("massf_net_delivered_bits_total", "Payload bits delivered to destination hosts."),
		FlowsStarted:  reg.Counter("massf_net_flows_started_total", "TCP flows started."),
		FlowsDone:     reg.Counter("massf_net_flows_completed_total", "TCP flows fully acknowledged."),

		FaultEvents:   reg.Counter("massf_net_fault_events_total", "Scripted fault-plane events fired."),
		FaultDrops:    reg.Counter("massf_net_fault_drops_total", "Packets lost to failed links or nodes."),
		FaultConverge: reg.Gauge("massf_net_fault_converge_ns", "Modeled reconvergence delay of the latest fault, ns."),
		FaultRoutesAt: reg.Gauge("massf_net_fault_routes_at_ns", "Simulated time the latest fault's post-fault routes took effect, ns."),
	}
	for i := 0; i < engines; i++ {
		t.EngineEvents = append(t.EngineEvents,
			reg.Counter("massf_engine_events_total", "Kernel events processed, per engine.",
				Label{Key: "engine", Value: strconv.Itoa(i)}))
	}
	return t
}
