// Package experiments reproduces the paper's evaluation: it builds the
// single-AS (Section 4) and multi-AS (Section 5) testbeds, runs the
// profiling pass, executes each mapping approach under each application
// workload, and emits the series behind every figure (3, 5–13) plus the
// headline claims. See EXPERIMENTS.md for the recorded outputs.
package experiments

import (
	"context"
	"fmt"

	"massf/internal/cluster"
	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/faults"
	"massf/internal/fluid"
	"massf/internal/metrics"
	"massf/internal/model"
	"massf/internal/netmon"
	"massf/internal/netsim"
	"massf/internal/pdes"
	"massf/internal/profile"
	"massf/internal/routing/interdomain"
	"massf/internal/runspec"
	"massf/internal/traffic"
)

// Scale fixes the experiment size. The paper runs 20,000 routers (100 AS ×
// 200 routers) with 10,000 hosts, 8,000 clients, 2,000 servers on 90
// engines for ~30-minute applications; Reduced keeps every ratio but
// shrinks by 10× (and the horizon much further) so the full suite runs on
// a laptop.
type Scale struct {
	Name         string
	Routers      int // single-AS router count
	ASes         int // multi-AS AS count
	RoutersPerAS int
	Hosts        int
	Clients      int
	Servers      int
	AppHosts     int
	Engines      int
	Horizon      des.Time
	EventCost    des.Time
	Seed         int64
}

// Reduced returns the default laptop-friendly scale (10× smaller than the
// paper, 8 s of simulated time).
func Reduced() Scale {
	return Scale{
		Name:         "reduced",
		Routers:      2000,
		ASes:         20,
		RoutersPerAS: 100,
		Hosts:        1000,
		Clients:      800,
		Servers:      190,
		AppHosts:     7,
		Engines:      16,
		Horizon:      8 * des.Second,
		EventCost:    15 * des.Microsecond,
		Seed:         1,
	}
}

// Paper returns the paper's full scale. Expect long runtimes and a large
// memory footprint; the partitioning stages are fast, the packet
// simulation is the expensive part.
func Paper() Scale {
	return Scale{
		Name:         "paper",
		Routers:      20000,
		ASes:         100,
		RoutersPerAS: 200,
		Hosts:        10000,
		Clients:      8000,
		Servers:      2000,
		AppHosts:     7,
		Engines:      90,
		Horizon:      30 * des.Second,
		EventCost:    15 * des.Microsecond,
		Seed:         1,
	}
}

// Workload selects the foreground application.
type Workload int

// The two foreground applications of the evaluation, plus a
// background-only workload (HTTP traffic with no foreground application,
// used by the run-control daemon for load-only scenarios).
const (
	ScaLapack Workload = iota
	GridNPB
	HTTPOnly
)

// String implements fmt.Stringer.
func (w Workload) String() string {
	switch w {
	case ScaLapack:
		return "ScaLapack"
	case GridNPB:
		return "GridNPB"
	default:
		return "http-only"
	}
}

// Setup is a built testbed: topology, routing, host roles, and (after
// RunProfiling) the traffic profile the PROF approaches consume.
type Setup struct {
	Scale   Scale
	MultiAS bool
	Net     *model.Network
	Routes  netsim.Routes
	// Router is the concrete interdomain router behind Routes — the base
	// routing epoch a fault plane advances from.
	Router *interdomain.Router
	Sync   cluster.SyncCostModel

	Hosts    []model.NodeID
	AppHosts []model.NodeID
	Clients  []model.NodeID
	Servers  []model.NodeID

	Profile *profile.Profile
}

// BuildSingleAS constructs the Section 4 testbed: a flat power-law network
// with OSPF routing.
func BuildSingleAS(sc Scale) (*Setup, error) {
	return buildScale(Scenario{Flat: &FlatSpec{Routers: sc.Routers, Hosts: sc.Hosts}}, sc)
}

// BuildMultiAS constructs the Section 5 testbed: an Internet-like multi-AS
// network with automatically configured BGP policy routing plus OSPF inside
// every AS.
func BuildMultiAS(sc Scale) (*Setup, error) {
	return buildScale(Scenario{MultiAS: &MultiASSpec{
		ASes: sc.ASes, RoutersPerAS: sc.RoutersPerAS, Hosts: sc.Hosts,
	}}, sc)
}

// buildScale generates s's topology with the scale's seed — the launch
// path's network step — and builds the scale's testbed on it.
func buildScale(s Scenario, sc Scale) (*Setup, error) {
	s.Seed = sc.Seed
	net, multi, err := s.Network("")
	if err != nil {
		return nil, err
	}
	return NewSetup(net, sc, multi)
}

// NewSetup builds a Setup from an already-constructed network — the
// launch path's entry point, where topologies may arrive as DML uploads
// rather than through the built-in generators. Scale supplies the host
// roles, engine count, horizon and seed; the topology fields of Scale are
// ignored.
func NewSetup(net *model.Network, sc Scale, multi bool) (*Setup, error) {
	return newSetup(net, sc, multi, nil)
}

// newSetup is NewSetup with routing scoped to the owned nodes of a
// distributed worker when owned is non-nil (interdomain.NewScoped):
// forwarding is byte-identical and warmed the same way, only the retained
// state shrinks.
func newSetup(net *model.Network, sc Scale, multi bool, owned []bool) (*Setup, error) {
	st := &Setup{Scale: sc, MultiAS: multi, Net: net, Sync: cluster.DefaultTeraGrid()}
	var router *interdomain.Router
	if owned != nil {
		router = interdomain.NewScoped(net, owned)
	} else {
		router = interdomain.New(net)
	}
	st.Routes = router
	st.Router = router
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			st.Hosts = append(st.Hosts, model.NodeID(i))
		}
	}
	if len(st.Hosts) < sc.AppHosts+2 {
		return nil, fmt.Errorf("experiments: only %d hosts generated; need ≥ %d", len(st.Hosts), sc.AppHosts+2)
	}
	// Application hosts: spread across the host list (distinct attachment
	// points with high probability).
	step := len(st.Hosts) / sc.AppHosts
	for i := 0; i < sc.AppHosts; i++ {
		st.AppHosts = append(st.AppHosts, st.Hosts[i*step])
	}
	// Clients and servers from the remaining hosts.
	taken := map[model.NodeID]bool{}
	for _, h := range st.AppHosts {
		taken[h] = true
	}
	var free []model.NodeID
	for _, h := range st.Hosts {
		if !taken[h] {
			free = append(free, h)
		}
	}
	nc, ns := sc.Clients, sc.Servers
	if nc+ns > len(free) {
		// Shrink proportionally for tiny test scales.
		ratio := float64(len(free)) / float64(nc+ns)
		nc = int(float64(nc) * ratio)
		ns = len(free) - nc
	}
	st.Clients = free[:nc]
	st.Servers = free[nc : nc+ns]
	// Warm routing caches for every traffic destination.
	router.Prepare(st.Hosts)
	return st, nil
}

// Traffic is what a run carries beside its application workload: the
// scenario's background web load (the default), or the conformance
// oracle's scripted transfers (internal/simcheck). The builder asks it for
// the flows the fluid plane models before the simulation exists, then has
// it install its packet-level sources on the built simulation.
type Traffic interface {
	// Fluid returns the flows modeled on the fluid plane up to end, the
	// continuation of their chains (nil: none) and the rate quantum. No
	// flows, no fluid plane.
	Fluid(end des.Time) ([]fluid.Flow, func(chain int32, at des.Time) (fluid.Flow, bool), des.Time)
	// Install starts the packet-level sources on p.Sim.
	Install(p *Prepared)
}

// Exec is how a run executes, as opposed to what it simulates; launched
// runs use the zero Exec (in process, uninstrumented). It is never
// serialized: a spec names what to simulate, the caller where it runs.
type Exec struct {
	End        des.Time         // > 0: the exact horizon, in place of Seconds
	Invariants *pdes.Invariants // arms the pdes runtime invariant checks
	// Transport makes the run one worker of a distributed run, executing
	// engines [First, First+Hosted) and materializing only their share;
	// Slice is the set of nodes they own (topology.Slice.Owned), which
	// scopes the worker's routing state.
	Transport     pdes.Transport
	First, Hosted int
	Slice         []bool
}

// background is the scenario's web workload: packet-level, or at hybrid
// fidelity its analytic twin on the fluid plane — same clients, servers,
// seed and draw parameters.
type background struct {
	cfg     traffic.HTTPConfig
	hybrid  bool
	quantum des.Time
	stats   *traffic.HTTPStats // the hybrid workload's counts, filled by Fluid
}

func (b *background) Fluid(end des.Time) ([]fluid.Flow, func(int32, des.Time) (fluid.Flow, bool), des.Time) {
	if !b.hybrid {
		return nil, nil, 0
	}
	flows, next, stats := traffic.FluidHTTP(b.cfg, end)
	b.stats = stats
	return flows, next, b.quantum
}

func (b *background) Install(p *Prepared) {
	if b.hybrid {
		p.HTTP = b.stats
		return
	}
	p.HTTP = traffic.InstallHTTP(p.Sim, b.cfg)
}

// installApp installs the foreground application workflows.
func (st *Setup) installApp(p *Prepared, w Workload) error {
	var flows []traffic.Workflow
	switch w {
	case ScaLapack:
		flows = []traffic.Workflow{traffic.ScaLapack(st.AppHosts, traffic.DefaultScaLapack())}
	case GridNPB:
		flows = traffic.GridNPB(st.AppHosts)
	case HTTPOnly:
		// Background web traffic only.
	}
	for _, f := range flows {
		ws, err := traffic.InstallWorkflow(p.Sim, f, 0)
		if err != nil {
			return err
		}
		p.Apps = append(p.Apps, ws)
	}
	return nil
}

// sequential is the profiling pass's mapping: everything on one engine,
// nothing cut.
var sequential = &core.Mapping{Approach: core.RANDOM, MLL: core.MaxMLL, E: 1, Es: 1, Ec: 1}

// RunProfiling executes the profiling pass of the PROF approaches: the
// full workload on a single engine (the naive partition's event counts are
// identical; a sequential pass avoids paying the naive partition's
// enormous synchronization bill twice). The profile is stored on the
// Setup, merged into one an earlier pass left there.
func (st *Setup) RunProfiling(w Workload) error {
	p, err := st.profilingPass(context.Background(), w)
	if err != nil {
		return err
	}
	if st.Profile == nil {
		st.Profile = p
		return nil
	}
	return st.Profile.Merge(p)
}

// profilingPass is the one profiling pass: the workload built like any
// other run, on one engine, stoppable through ctx at a barrier.
func (st *Setup) profilingPass(ctx context.Context, w Workload) (*profile.Profile, error) {
	seq := *st
	seq.Scale.Engines = 1
	p, err := seq.prepare(sequential, w, runspec.RunSpec{}, nil, Exec{})
	if err != nil {
		return nil, err
	}
	out := p.Run(ctx)
	if out.Result.Stopped {
		return nil, ctx.Err()
	}
	return out.Captured, nil
}

// MapApproach runs just the mapping stage (no packet simulation) — enough
// for the achieved-MLL figures and the partitioner ablations.
func (st *Setup) MapApproach(a core.Approach) (*core.Mapping, error) {
	return core.Map(st.Net, a, core.Config{
		Engines: st.Scale.Engines, Sync: st.Sync, Seed: st.Scale.Seed,
	}, st.Profile)
}

// BuildSim constructs (but does not run) the full simulation for mapping m
// under workload w; see prepare. The caller owns Run — and may Stop it from
// another goroutine for cancellation.
func (st *Setup) BuildSim(m *core.Mapping, w Workload, opt runspec.RunSpec) (*netsim.Sim, []*traffic.WorkflowStats, error) {
	p, err := st.prepare(m, w, opt, nil, Exec{})
	if err != nil {
		return nil, nil, err
	}
	return p.Sim, p.Apps, nil
}

// prepare is the one place a Setup becomes a simulation: the packet
// simulator on m's partition, the traffic src carries (nil: the
// scenario's background HTTP) plus the selected foreground application,
// executed as x says.
//
// opt is the unified run configuration (runspec.RunSpec); prepare reads
// only the run-surface knobs — Telemetry, RealTimeFactor, SeriesBuckets,
// Faults, NetMon, NetSample and the hybrid-fidelity knobs (FlowFidelity,
// FluidQuantumUS); the scale-level fields (Engines, Seconds, Seed,
// EventCostUS) are taken from Setup.Scale, which was sized before mapping.
func (st *Setup) prepare(m *core.Mapping, w Workload, opt runspec.RunSpec, src Traffic, x Exec) (*Prepared, error) {
	if src == nil {
		src = &background{
			cfg: traffic.HTTPConfig{
				Clients: st.Clients, Servers: st.Servers,
				MeanGap: 5 * des.Second, MeanFileBytes: 50_000, Seed: st.Scale.Seed,
			},
			hybrid: opt.Hybrid(), quantum: opt.FluidQuantum(),
		}
	}
	cfg := netsim.Config{
		Net: st.Net, Routes: st.Routes, Part: m.Part, Engines: st.Scale.Engines,
		Window: m.Window(), End: st.Scale.Horizon,
		Sync: st.Sync, EventCost: st.Scale.EventCost, Seed: st.Scale.Seed,
		SeriesBuckets: opt.SeriesBuckets, RealTimeFactor: opt.RealTimeFactor,
		Telemetry: opt.Telemetry, Invariants: x.Invariants,
		Transport: x.Transport, FirstEngine: x.First, HostedEngines: x.Hosted,
	}
	p := &Prepared{Mapping: m}
	var plane *faults.Plane
	if opt.Faults != nil {
		var err error
		if plane, err = faults.NewPlane(st.Net, st.Router, opt.Faults); err != nil {
			return nil, err
		}
		plane.Prepare(st.Hosts)
		cfg.Faults = plane
	}
	if flows, next, quantum := src.Fluid(st.Scale.Horizon); len(flows) > 0 {
		// The fluid plane is precomputed here from the network, routes,
		// horizon and flows. Its solver walks whole paths, which a
		// slice-scoped router refuses, so a worker with scoped routing
		// builds the (immutable) plane over a transient unscoped router
		// and, under churn, a fault plane compiled on it.
		routes, fview := st.Router, plane
		if x.Slice != nil {
			routes = interdomain.New(st.Net)
			if plane != nil {
				var err error
				if fview, err = faults.NewPlane(st.Net, routes, opt.Faults); err != nil {
					return nil, err
				}
			}
		}
		fcfg := fluid.Config{
			Net: st.Net, Routes: routes, End: st.Scale.Horizon,
			Quantum: quantum, Next: next,
		}
		if fview != nil {
			fcfg.Faults = fview
		}
		fp, err := fluid.Build(fcfg, flows)
		if err != nil {
			return nil, err
		}
		cfg.Fluid = fp
	}
	if opt.NetMon || opt.NetSample > 0 {
		bw := make([]int64, len(st.Net.Links))
		for i := range st.Net.Links {
			bw[i] = st.Net.Links[i].Bandwidth
		}
		cfg.NetMon = netmon.New(netmon.Options{
			Links: len(st.Net.Links), Horizon: st.Scale.Horizon,
			SampleEvery: opt.NetSample, Bandwidths: bw,
		})
	}
	var err error
	if p.Sim, err = netsim.New(cfg); err != nil {
		return nil, err
	}
	src.Install(p)
	if err := st.installApp(p, w); err != nil {
		return nil, err
	}
	return p, nil
}

// Prepared is a built simulation that has not started: the step between
// construction and Run where a caller publishes the live surfaces a client
// may follow (the netmon plane, an ingest agent).
type Prepared struct {
	Sim     *netsim.Sim
	Mapping *core.Mapping
	// HTTP counts the background web workload (filled during the fluid
	// build for hybrid runs, live for packet runs); Apps the foreground
	// workflows' rounds.
	HTTP *traffic.HTTPStats
	Apps []*traffic.WorkflowStats
}

// NetMon returns the run's network observability plane (nil when the run
// spec did not enable it).
func (p *Prepared) NetMon() *netmon.Mon { return p.Sim.Config().NetMon }

// NetSummary condenses the packet-level outcome of a finished run.
type NetSummary struct {
	FlowsStarted    int    `json:"flows_started"`
	FlowsCompleted  int    `json:"flows_completed"`
	Dropped         uint64 `json:"dropped"`
	Retransmissions uint64 `json:"retransmissions"`
	DeliveredBits   uint64 `json:"delivered_bits"`
	// FaultDrops is the subset of Dropped attributed to scripted faults
	// (0 for fault-free runs).
	FaultDrops uint64 `json:"fault_drops,omitempty"`
	// Fluid* summarize the flow-level half of a hybrid-fidelity run
	// (absent for pure-packet runs).
	FluidStarted       int    `json:"fluid_started,omitempty"`
	FluidCompleted     int    `json:"fluid_completed,omitempty"`
	FluidDeliveredBits uint64 `json:"fluid_delivered_bits,omitempty"`
	// NetMon condenses the network observability plane's output when the
	// run enabled it (spec netmon / net_sample).
	NetMon *netmon.Summary `json:"netmon,omitempty"`
}

// FaultRecord is one fault event's full outcome: the plane's reconvergence
// report plus the packet loss the run attributed to it.
type FaultRecord struct {
	faults.FaultInfo
	Drops uint64 `json:"drops"`
}

// RunOutcome is everything one run produced.
type RunOutcome struct {
	Mapping *core.Mapping
	Result  netsim.Result
	Report  metrics.Report
	Net     NetSummary
	// Faults has one record per scripted fault event (nil without a script).
	Faults []FaultRecord
	// Captured is the traffic profile measured from this run's own
	// execution — every run doubles as a profiling run (Section 3.3's
	// monitoring loop). A stopped run's partial measurements are still
	// valid rates.
	Captured *profile.Profile
	HTTP     *traffic.HTTPStats
	Apps     []*traffic.WorkflowStats
}

// Run executes the prepared simulation to its horizon, or to the next
// barrier after ctx is cancelled (Result.Stopped is then set), and gathers
// the outcome.
func (p *Prepared) Run(ctx context.Context) *RunOutcome {
	release := context.AfterFunc(ctx, p.Sim.Stop)
	res := p.Sim.Run()
	release()
	cfg := p.Sim.Config()
	out := &RunOutcome{
		Mapping:  p.Mapping,
		Result:   res,
		Report:   metrics.FromStats(p.Mapping.Approach.String(), res.Stats, cfg.EventCost),
		Captured: profile.FromResult(&res, cfg.End),
		HTTP:     p.HTTP,
		Apps:     p.Apps,
		Net: NetSummary{
			FlowsStarted: res.FlowsStarted, FlowsCompleted: res.FlowsCompleted,
			Dropped: res.Dropped, Retransmissions: res.Retransmissions,
			DeliveredBits: res.DeliveredBits,
			FluidStarted:  res.FluidStarted, FluidCompleted: res.FluidCompleted,
			FluidDeliveredBits: res.FluidDeliveredBits,
		},
	}
	if plane, ok := cfg.Faults.(*faults.Plane); ok {
		out.Faults = make([]FaultRecord, len(plane.Events()))
		for i, ev := range plane.Events() {
			out.Faults[i] = FaultRecord{FaultInfo: ev}
			if i < len(res.FaultDrops) {
				out.Faults[i].Drops = res.FaultDrops[i]
				out.Net.FaultDrops += res.FaultDrops[i]
			}
		}
	}
	if cfg.NetMon != nil {
		out.Net.NetMon = cfg.NetMon.Summary()
	}
	return out
}

// RunMapping maps the network with approach a and executes the full
// workload under that partition.
func (st *Setup) RunMapping(a core.Approach, w Workload) (*RunOutcome, error) {
	m, err := st.MapApproach(a)
	if err != nil {
		return nil, err
	}
	p, err := st.prepare(m, w, runspec.RunSpec{}, nil, Exec{})
	if err != nil {
		return nil, err
	}
	return p.Run(context.Background()), nil
}

// DefaultSync returns the synchronization cost model the experiments use.
func DefaultSync() cluster.SyncCostModel { return cluster.DefaultTeraGrid() }
