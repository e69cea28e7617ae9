package simcheck

import (
	"fmt"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/faults"
	"massf/internal/fluid"
	"massf/internal/model"
	"massf/internal/netmon"
	"massf/internal/netsim"
	"massf/internal/pdes"
	"massf/internal/routing/interdomain"
	"massf/internal/telemetry"
	"massf/internal/traffic"
)

// Observation is the partition-independent view of one simulation run —
// everything that must be byte-identical between the sequential reference
// and a parallel run of the same scenario. Partition-*dependent* outputs
// (ModeledTimeNS, per-engine event counts, window counts, queue depths)
// are deliberately excluded: they describe the execution, not the model.
type Observation struct {
	TotalEvents     uint64
	DeliveredBits   uint64
	Dropped         uint64
	Retransmissions uint64
	FlowsStarted    int
	FlowsCompleted  int
	LastCompletion  des.Time

	NodeEvents []uint64 // per router/host: kernel events attributed
	LinkBits   []uint64 // per link: carried bits
	LinkDrops  []uint64 // per link: tail drops
	FaultDrops []uint64 // per scripted fault: loss attributed (churn scenarios)

	TCPDone []des.Time // per scripted TCP flow: completion time (0 = never)
	TCPRecv []des.Time // per scripted TCP flow: full delivery at receiver
	UDPRecv []des.Time // per scripted UDP send: delivery time (0 = dropped)

	HTTPRequests  uint64
	HTTPResponses uint64

	// Fluid* mirror the hybrid run's flow-level counters (zero on pure
	// packet runs). Fluidized scripted-TCP completions land in TCPDone /
	// TCPRecv like their packet counterparts, so the per-flow merge and
	// diff machinery covers both fidelities with one code path.
	FluidStarted        int      `json:",omitempty"`
	FluidCompleted      int      `json:",omitempty"`
	FluidDeliveredBits  uint64   `json:",omitempty"`
	FluidLastCompletion des.Time `json:",omitempty"`
	FluidLinkBits       []uint64 `json:",omitempty"` // per link: fluid wire bits

	// PathSpans are the netmon-sampled packet-path spans of an
	// instrumented run (Scenario.NetSample > 0). They are OUTPUT of the
	// observability plane, not a model observable, so Diff ignores them;
	// MergeObservations concatenates worker partials so a distributed
	// run's cross-worker paths can be stitched and audited.
	PathSpans []netmon.HopSpan `json:",omitempty"`

	// Worker build accounting, set only on distributed worker partials:
	// how long this worker spent materializing the scenario, its post-run
	// live heap and process peak RSS, and the bytes of OSPF tables it holds.
	// These describe the EXECUTION, not the model, so Diff excludes them
	// and MergeObservations leaves them per-partial (DistReport collects
	// them as WorkerMem). Note the loopback workers Plan.Distributed runs
	// when given no listener share one heap, so HeapInuse/PeakRSS are only
	// per-worker-meaningful for real worker processes (massfd -worker);
	// BuildNS and RouteBytes are always per-worker.
	BuildNS    int64  `json:",omitempty"`
	HeapInuse  uint64 `json:",omitempty"`
	PeakRSS    uint64 `json:",omitempty"`
	RouteBytes int64  `json:",omitempty"`
	SliceNodes int    `json:",omitempty"` // owned nodes of a sliced build
}

// exec says how runOnce executes a scenario: on k engines under a partition
// and window, with the pdes runtime invariant hooks (inv) and the flight
// recorder (tel) attached when non-nil. A non-nil transport makes the run
// ONE WORKER of a distributed run: only engines [first, first+hosted)
// execute, synchronized through it, on the full replicated scenario or —
// slice true — on just the hosted engines' share
// (netsim.Config.SliceBuild); the captured Observation is then a worker
// partial (see MergeObservations).
type exec struct {
	k      int
	part   []int32
	window des.Time
	inv    *pdes.Invariants
	tel    *telemetry.SimTelemetry

	transport     pdes.Transport
	first, hosted int
	slice         bool
}

// sequential is the N=1 execution every parallel run is diffed against.
var sequential = exec{k: 1, window: core.MaxMLL}

// runOnce executes the scenario once as x says and captures an
// Observation. The netsim.Result is returned for profile capture.
func runOnce(net *netsimNet, sc Scenario, x exec) (*Observation, *netsim.Result, error) {
	cfg := netsim.Config{
		Net: net.net, Routes: net.routes, Part: x.part, Engines: x.k,
		Window: x.window, End: sc.Horizon, Seed: sc.Seed,
		Invariants: x.inv, Telemetry: x.tel,
		Transport: x.transport, FirstEngine: x.first, HostedEngines: x.hosted, SliceBuild: x.slice,
	}
	if net.plane != nil {
		cfg.Faults = net.plane
	}
	if net.fluid != nil {
		cfg.Fluid = net.fluid
	}
	var mon *netmon.Mon
	if sc.NetSample > 0 {
		mon = netmon.New(netmon.Options{
			Links: len(net.net.Links), Horizon: sc.Horizon, SampleEvery: sc.NetSample,
		})
		cfg.NetMon = mon
	}
	s, err := netsim.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	obs := &Observation{
		TCPDone: make([]des.Time, len(net.tcp)),
		TCPRecv: make([]des.Time, len(net.tcp)),
		UDPRecv: make([]des.Time, len(net.udp)),
	}
	for i := range net.tcp {
		if net.isFluid != nil && net.isFluid[i] {
			continue // modeled on the fluid plane; completion read post-run
		}
		i, f := i, net.tcp[i]
		s.StartFlowRecv(f.at, f.src, f.dst, f.bytes,
			func(at des.Time) { obs.TCPDone[i] = at },
			func(at des.Time) { obs.TCPRecv[i] = at })
	}
	for i := range net.udp {
		i, u := i, net.udp[i]
		s.SendUDP(u.at, u.src, u.dst, u.bytes,
			func(at des.Time) { obs.UDPRecv[i] = at })
	}
	var httpStats *traffic.HTTPStats
	if clients, servers := sc.httpEndpoints(net.hosts); len(clients) > 0 {
		httpStats = traffic.InstallHTTP(s, traffic.HTTPConfig{
			Clients: clients, Servers: servers,
			MeanGap: 30 * des.Millisecond, MeanFileBytes: 20_000,
			Seed: sc.Seed + 7,
		})
	}
	res := s.Run()
	if res.Err != nil {
		return nil, nil, res.Err
	}
	obs.TotalEvents = res.TotalEvents
	obs.DeliveredBits = res.DeliveredBits
	obs.Dropped = res.Dropped
	obs.Retransmissions = res.Retransmissions
	obs.FlowsStarted = res.FlowsStarted
	obs.FlowsCompleted = res.FlowsCompleted
	obs.LastCompletion = res.LastCompletion
	obs.NodeEvents = res.NodeEvents
	obs.LinkBits = res.LinkBits
	obs.LinkDrops = res.LinkDrops
	obs.FaultDrops = res.FaultDrops
	if httpStats != nil {
		obs.HTTPRequests = httpStats.TotalRequests()
		obs.HTTPResponses = httpStats.TotalResponses()
	}
	if net.fluid != nil {
		obs.FluidStarted = res.FluidStarted
		obs.FluidCompleted = res.FluidCompleted
		obs.FluidDeliveredBits = res.FluidDeliveredBits
		obs.FluidLastCompletion = res.FluidLastCompletion
		obs.FluidLinkBits = res.FluidLinkBits
		// FluidDone is hosted-filtered, so each scripted completion lands
		// on exactly one worker — the same contract packet TCPDone merges
		// rely on. Fluid transfers have no separate sender-done/receiver
		// -done distinction; the analytic completion fills both slots.
		for fi, ti := range net.fluidOf {
			if d := res.FluidDone[fi]; d != 0 {
				obs.TCPDone[ti], obs.TCPRecv[ti] = d, d
			}
		}
	}
	if mon != nil {
		obs.PathSpans = mon.Spans()
	}
	return obs, &res, nil
}

// netsimNet bundles a built scenario: network, warmed routes, hosts, the
// deterministic traffic script replayed into every run, the compiled
// fault plane (nil for churn-free scenarios), and — hybrid scenarios
// only — the precomputed fluid plane with the mapping from fluid flow
// index back to the scripted TCP entry it models.
type netsimNet struct {
	net     *model.Network
	routes  netsim.Routes
	hosts   []model.NodeID
	tcp     []tcpSpec
	udp     []udpSpec
	plane   *faults.Plane
	fluid   *fluid.Plane
	fluidOf []int  // fluid flow index → tcp script index
	isFluid []bool // tcp script index → modeled on the fluid plane
}

// finishBundle completes the bundle every run of a scenario shares, on its
// already-generated (possibly artifact-decoded) network. Distributed
// workers call it too: building from the same Scenario value is what makes
// their setup replicas identical — including the fault plane, whose routing
// epochs each worker precomputes identically. A non-nil scope builds the
// slice-local variant a sliced distributed worker runs: routing state is
// scoped to the worker's owned nodes and nothing is eagerly warmed — OSPF
// trees fill lazily on the first (cur, dst) lookup slice traffic performs.
// Scoped or not, forwarding decisions are byte-identical (trees are always
// computed over the full member set; only retained state shrinks), and the
// fault plane's epoch chain advances through the same scoped clones.
func finishBundle(sc Scenario, mnet *model.Network, scope []bool) (*netsimNet, error) {
	hosts := hostsOf(mnet)
	if len(hosts) < 4 {
		return nil, fmt.Errorf("simcheck: scenario generated only %d hosts", len(hosts))
	}
	var router *interdomain.Router
	if scope != nil {
		router = interdomain.NewScoped(mnet, scope)
	} else {
		router = interdomain.New(mnet)
		router.Prepare(hosts)
	}
	tcp, udp := sc.script(hosts)
	b := &netsimNet{net: mnet, routes: router, hosts: hosts, tcp: tcp, udp: udp}
	if script := sc.effectiveFaults(mnet); script != nil && len(script.Events) > 0 {
		plane, err := faults.NewPlane(mnet, router, script)
		if err != nil {
			return nil, fmt.Errorf("simcheck: compiling fault plane: %w", err)
		}
		if scope == nil {
			plane.Prepare(hosts)
		}
		b.plane = plane
	}
	if sc.FluidMinBytes > 0 {
		if scope != nil {
			// The fluid solver walks whole paths; a slice-scoped router
			// refuses off-slice lookups. Hybrid distributed runs use the
			// replicated build (RunSpec.NoSlice / spec.Slice false).
			return nil, fmt.Errorf("simcheck: hybrid fidelity requires the replicated build, not a sliced worker")
		}
		b.isFluid = make([]bool, len(tcp))
		var fflows []fluid.Flow
		for i, f := range tcp {
			if f.bytes < sc.FluidMinBytes {
				continue
			}
			b.isFluid[i] = true
			b.fluidOf = append(b.fluidOf, i)
			fflows = append(fflows, fluid.Flow{
				Src: f.src, Dst: f.dst, Bytes: f.bytes, Start: f.at, Chain: -1,
			})
		}
		if len(fflows) > 0 {
			fcfg := fluid.Config{
				Net: mnet, Routes: router, End: sc.Horizon,
				Quantum: des.Time(sc.FluidQuantumNS),
			}
			if b.plane != nil {
				fcfg.Faults = b.plane
			}
			plane, err := fluid.Build(fcfg, fflows)
			if err != nil {
				return nil, fmt.Errorf("simcheck: building fluid plane: %w", err)
			}
			b.fluid = plane
		}
	}
	return b, nil
}

// Divergence is one observable difference between the sequential reference
// and a parallel run.
type Divergence struct {
	Field string
	Index int // -1 for scalar fields
	Seq   string
	Par   string
	// At is the earliest simulated time the divergence is attributable to
	// (time-valued fields only; 0 when unknown). It locates the divergent
	// barrier window: window = At / Window length.
	At des.Time
}

func (d Divergence) String() string {
	if d.Index >= 0 {
		return fmt.Sprintf("%s[%d]: seq=%s par=%s", d.Field, d.Index, d.Seq, d.Par)
	}
	return fmt.Sprintf("%s: seq=%s par=%s", d.Field, d.Seq, d.Par)
}

// KRun is the outcome of comparing one parallel engine count against the
// sequential reference.
type KRun struct {
	K           int
	Window      des.Time
	Windows     int // barrier windows executed (for trace attribution)
	MLL         des.Time
	Obs         *Observation
	Divergences []Divergence
	Violations  []pdes.Violation
}

// Failed reports whether this run diverged or violated an invariant.
func (kr *KRun) Failed() bool { return len(kr.Divergences) > 0 || len(kr.Violations) > 0 }

// DivergentWindow returns the barrier-window index of the earliest
// time-attributable divergence, or -1 when no divergence carries a time.
func (kr *KRun) DivergentWindow() int {
	best := des.EndOfTime
	for _, d := range kr.Divergences {
		if d.At > 0 && d.At < best {
			best = d.At
		}
	}
	if best == des.EndOfTime || kr.Window <= 0 {
		return -1
	}
	return int(best / kr.Window)
}

// Report is the outcome of checking one scenario.
type Report struct {
	Scenario Scenario
	Ref      *Observation
	Runs     []KRun
}

// Failed reports whether any parallel run diverged or violated an
// invariant.
func (r *Report) Failed() bool {
	for i := range r.Runs {
		if r.Runs[i].Failed() {
			return true
		}
	}
	return false
}

// Diff compares a parallel observation against the sequential reference
// and returns every difference. Slice fields are compared element-wise;
// time-valued per-flow fields record the earlier of the two times as the
// divergence's attributable simulated time.
func Diff(seq, par *Observation) []Divergence {
	var ds []Divergence
	scalar := func(field string, a, b uint64) {
		if a != b {
			ds = append(ds, Divergence{Field: field, Index: -1,
				Seq: fmt.Sprint(a), Par: fmt.Sprint(b)})
		}
	}
	scalar("TotalEvents", seq.TotalEvents, par.TotalEvents)
	scalar("DeliveredBits", seq.DeliveredBits, par.DeliveredBits)
	scalar("Dropped", seq.Dropped, par.Dropped)
	scalar("Retransmissions", seq.Retransmissions, par.Retransmissions)
	scalar("FlowsStarted", uint64(seq.FlowsStarted), uint64(par.FlowsStarted))
	scalar("FlowsCompleted", uint64(seq.FlowsCompleted), uint64(par.FlowsCompleted))
	scalar("HTTPRequests", seq.HTTPRequests, par.HTTPRequests)
	scalar("HTTPResponses", seq.HTTPResponses, par.HTTPResponses)
	scalar("FluidStarted", uint64(seq.FluidStarted), uint64(par.FluidStarted))
	scalar("FluidCompleted", uint64(seq.FluidCompleted), uint64(par.FluidCompleted))
	scalar("FluidDeliveredBits", seq.FluidDeliveredBits, par.FluidDeliveredBits)
	if seq.FluidLastCompletion != par.FluidLastCompletion {
		ds = append(ds, Divergence{Field: "FluidLastCompletion", Index: -1,
			Seq: seq.FluidLastCompletion.String(), Par: par.FluidLastCompletion.String(),
			At: minTime(seq.FluidLastCompletion, par.FluidLastCompletion)})
	}
	if seq.LastCompletion != par.LastCompletion {
		ds = append(ds, Divergence{Field: "LastCompletion", Index: -1,
			Seq: seq.LastCompletion.String(), Par: par.LastCompletion.String(),
			At: minTime(seq.LastCompletion, par.LastCompletion)})
	}
	uslice := func(field string, a, b []uint64) {
		if len(a) != len(b) {
			ds = append(ds, Divergence{Field: field + ".len", Index: -1,
				Seq: fmt.Sprint(len(a)), Par: fmt.Sprint(len(b))})
			return
		}
		for i := range a {
			if a[i] != b[i] {
				ds = append(ds, Divergence{Field: field, Index: i,
					Seq: fmt.Sprint(a[i]), Par: fmt.Sprint(b[i])})
			}
		}
	}
	uslice("NodeEvents", seq.NodeEvents, par.NodeEvents)
	uslice("LinkBits", seq.LinkBits, par.LinkBits)
	uslice("LinkDrops", seq.LinkDrops, par.LinkDrops)
	uslice("FaultDrops", seq.FaultDrops, par.FaultDrops)
	uslice("FluidLinkBits", seq.FluidLinkBits, par.FluidLinkBits)
	tslice := func(field string, a, b []des.Time) {
		if len(a) != len(b) {
			ds = append(ds, Divergence{Field: field + ".len", Index: -1,
				Seq: fmt.Sprint(len(a)), Par: fmt.Sprint(len(b))})
			return
		}
		for i := range a {
			if a[i] != b[i] {
				ds = append(ds, Divergence{Field: field, Index: i,
					Seq: a[i].String(), Par: b[i].String(),
					At: minTime(a[i], b[i])})
			}
		}
	}
	tslice("TCPDone", seq.TCPDone, par.TCPDone)
	tslice("TCPRecv", seq.TCPRecv, par.TCPRecv)
	tslice("UDPRecv", seq.UDPRecv, par.UDPRecv)
	return ds
}

func minTime(a, b des.Time) des.Time {
	if a == 0 {
		return b
	}
	if b != 0 && b < a {
		return b
	}
	return a
}
