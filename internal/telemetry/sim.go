// Package telemetry is the live observability subsystem of the simulator.
// A run's telemetry (SimTelemetry) is its per-window trace ring (ring.go),
// which the parallel engine publishes one record into per executed barrier
// window, plus running totals folded from those records and from what the
// network model already counts: nothing is counted twice. The leader of
// internal/pdes calls Publish once per window; internal/netsim supplies its
// network totals through SimTelemetry.Net, which Publish calls between the
// barriers, while no engine executes events. A nil *SimTelemetry disables
// instrumentation, and the engine loop then pays only a nil check.
//
// Snapshots are exposed in the Prometheus text exposition format
// (WritePrometheus, prom.go), built from Gather output so aggregators
// (cmd/massfd) can merge the points of many concurrent runs under
// distinguishing labels.
package telemetry

import (
	"slices"
	"strconv"
	"sync"
	"time"
)

// NetTotals are a network simulation's running totals, as the network model
// folds them from its engines' own counters.
type NetTotals struct {
	LinkBits      uint64 // bits put on links (utilization numerator)
	Drops         uint64 // packets dropped, every cause
	Retransmits   uint64 // TCP segments sent more than once
	DeliveredBits uint64 // payload bits delivered to hosts
	FlowsStarted  uint64
	FlowsDone     uint64
	FaultEvents   uint64 // scripted fault events fired
	FaultDrops    uint64 // packets lost to failed links or nodes
	// FaultConvergeNS and FaultRoutesAtNS describe the latest fault fired:
	// its modeled reconvergence delay and when its post-fault routes took
	// effect, ns.
	FaultConvergeNS, FaultRoutesAtNS int64
}

// Progress is how far a run has got: the windows it executed, the events
// and cross-partition events they held, and the simulated time front.
type Progress struct {
	Windows, Events, Remote uint64
	SimTimeNS               int64
}

// durationBounds are the nanosecond bucket bounds, 1 µs to 1 s, of a run's
// barrier-wait and window-wall histograms.
var durationBounds = [...]int64{
	1_000, 5_000, 10_000, 50_000, 100_000, 500_000,
	1_000_000, 5_000_000, 10_000_000, 50_000_000, 100_000_000, 1_000_000_000,
}

// histogram is a fixed-bucket histogram over durationBounds; the last
// count is the overflow bucket.
type histogram struct {
	counts [len(durationBounds) + 1]uint64
	sum    int64
	count  uint64
}

func (h *histogram) observe(v int64) {
	i := 0
	for i < len(durationBounds) && v > durationBounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

func (h *histogram) point(name, help string, labels map[string]string) Point {
	p := Point{Name: name, Kind: "histogram", Help: help, Labels: labels,
		Sum: float64(h.sum), Count: h.count, Buckets: make([]Bucket, len(durationBounds))}
	var cum uint64
	for i, b := range durationBounds {
		cum += h.counts[i]
		p.Buckets[i] = Bucket{Le: b, Count: cum}
	}
	return p
}

// SimTelemetry is one simulation run's live telemetry. Create one per run
// with New and pass it through netsim.Config.Telemetry (or
// pdes.Config.Telemetry for engine-only use). Publish, Gather, Progress and
// SetSetup are safe for concurrent use: the totals sit under one mutex that
// Publish takes once per window.
type SimTelemetry struct {
	// Windows is the per-window trace ring. Publish appends one
	// WindowRecord per executed barrier window, and the parallel engine
	// closes the ring when the run finishes, ending any live streams.
	Windows *Ring[WindowRecord]
	// Net, when set, returns the network model's totals; netsim sets it
	// for the span of its Run. Publish calls it once per window, between
	// the barriers, while no engine executes events, and stores the
	// result. Nothing else calls it: Gather reads what Publish stored.
	Net func() NetTotals

	mu          sync.Mutex
	progress    Progress
	setupNS     int64
	queueDepth  int64    // total pending events after the latest window
	peakQueue   int64    // high-water mark of any engine's queue
	engine      []uint64 // kernel events per engine
	barrierWait histogram
	windowWall  histogram
	net         NetTotals
}

// New creates a SimTelemetry for a run with the given engine count and
// window-ring capacity (≤ 0 for the default). Per-engine event totals are
// kept only for windows of exactly engines engines (a distributed worker
// told the global count publishes only its hosted ones).
func New(engines, ringCap int) *SimTelemetry {
	return &SimTelemetry{Windows: NewRing[WindowRecord](ringCap), engine: make([]uint64, engines)}
}

// Publish records one executed window. w is the caller's scratch, which it
// keeps: its bounds, wall time, modeled busy time and per-engine slices.
// Publish copies it into a fresh record, stamps the record's Seq with the
// run's window count and sums its remote sends into Remote, folds it and
// Net's totals into the run's totals, and appends the record to Windows,
// where it never changes again. The barrier waits in w are the previous
// window's, so the barrier-wait histogram counts zeros for the first window
// and never sees the last window's wait. Only the run's leader calls it.
func (t *SimTelemetry) Publish(w *WindowRecord) {
	rec := *w
	rec.Events = slices.Clone(w.Events)
	rec.RemoteSends = slices.Clone(w.RemoteSends)
	rec.ComputeNS = slices.Clone(w.ComputeNS)
	rec.BarrierWaitNS = slices.Clone(w.BarrierWaitNS)
	rec.ExchangeNS = slices.Clone(w.ExchangeNS)
	rec.QueueDepth = slices.Clone(w.QueueDepth)
	var events, remote uint64
	var depth, peak int64
	for i, ev := range w.Events {
		events += ev
		remote += w.RemoteSends[i]
		depth += int64(w.QueueDepth[i])
		peak = max(peak, int64(w.QueueDepth[i]))
	}
	var net NetTotals
	if t.Net != nil {
		net = t.Net()
	}
	rec.Remote = remote
	t.mu.Lock()
	rec.Seq = t.progress.Windows
	t.progress.Windows++
	t.progress.Events += events
	t.progress.Remote += remote
	t.progress.SimTimeNS = rec.EndNS
	t.queueDepth = depth
	t.peakQueue = max(t.peakQueue, peak)
	if len(t.engine) == len(w.Events) {
		for i, ev := range w.Events {
			t.engine[i] += ev
		}
	}
	for _, wait := range w.BarrierWaitNS {
		t.barrierWait.observe(wait)
	}
	t.windowWall.observe(w.WallNS)
	t.net = net
	t.mu.Unlock()
	t.Windows.Append(rec)
}

// Finish records that the run executed to its horizon, endNS. The idle
// windows it fast-forwarded over at the end had nothing to publish, so the
// time front moves there; a stopped run is not finished and keeps reading
// the end of its last executed window.
func (t *SimTelemetry) Finish(endNS int64) {
	t.mu.Lock()
	t.progress.SimTimeNS = endNS
	t.mu.Unlock()
}

// SetSetup records the scenario build wall time of this run.
func (t *SimTelemetry) SetSetup(d time.Duration) {
	t.mu.Lock()
	t.setupNS = int64(d)
	t.mu.Unlock()
}

// Progress returns the run's progress as of its latest published window.
func (t *SimTelemetry) Progress() Progress {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.progress
}

// Gather snapshots the run's totals as of its latest published window, each
// point labeled run=<run>.
func (t *SimTelemetry) Gather(run string) []Point {
	labels := map[string]string{"run": run}
	counter := func(name, help string, v uint64) Point {
		return Point{Name: name, Kind: "counter", Help: help, Labels: labels, Value: float64(v)}
	}
	gauge := func(name, help string, v int64) Point {
		return Point{Name: name, Kind: "gauge", Help: help, Labels: labels, Value: float64(v)}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p, net := t.progress, t.net
	pts := []Point{
		counter("massf_sim_events_total", "Kernel events processed across all engines.", p.Events),
		counter("massf_sim_remote_events_total", "Events exchanged across partitions at barriers.", p.Remote),
		counter("massf_sim_windows_total", "Barrier windows executed.", p.Windows),
		gauge("massf_sim_time_ns", "Simulated time front in nanoseconds.", p.SimTimeNS),
		gauge("massf_sim_setup_ns", "Scenario build wall time of this worker, ns.", t.setupNS),
		gauge("massf_sim_queue_depth", "Total pending events after the latest window.", t.queueDepth),
		gauge("massf_sim_queue_depth_peak", "High-water mark of any single engine's event queue.", t.peakQueue),
		t.barrierWait.point("massf_sim_barrier_wait_ns", "Per-engine wait at the window barrier, ns.", labels),
		t.windowWall.point("massf_sim_window_wall_ns", "Host wall time per executed window, ns.", labels),

		counter("massf_net_link_bits_total", "Bits transmitted onto links (utilization numerator).", net.LinkBits),
		counter("massf_net_drops_total", "Packets dropped (queue overflow, no route, TTL).", net.Drops),
		counter("massf_net_tcp_retransmits_total", "TCP segments sent more than once.", net.Retransmits),
		counter("massf_net_delivered_bits_total", "Payload bits delivered to destination hosts.", net.DeliveredBits),
		counter("massf_net_flows_started_total", "TCP flows started.", net.FlowsStarted),
		counter("massf_net_flows_completed_total", "TCP flows fully acknowledged.", net.FlowsDone),

		counter("massf_net_fault_events_total", "Scripted fault-plane events fired.", net.FaultEvents),
		counter("massf_net_fault_drops_total", "Packets lost to failed links or nodes.", net.FaultDrops),
		gauge("massf_net_fault_converge_ns", "Modeled reconvergence delay of the latest fault, ns.", net.FaultConvergeNS),
		gauge("massf_net_fault_routes_at_ns", "Simulated time the latest fault's post-fault routes took effect, ns.", net.FaultRoutesAtNS),
	}
	for i, ev := range t.engine {
		pts = append(pts, Point{
			Name: "massf_engine_events_total", Kind: "counter", Help: "Kernel events processed, per engine.",
			Labels: map[string]string{"engine": strconv.Itoa(i), "run": run}, Value: float64(ev),
		})
	}
	return pts
}
