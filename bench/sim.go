package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/experiments"
	"massf/internal/flight"
	"massf/internal/metrics"
	"massf/internal/model"
	"massf/internal/netsim"
	"massf/internal/runspec"
	"massf/internal/simcheck"
	"massf/internal/telemetry"
	"massf/internal/topology"
)

// sizes fixes every workload's input size. The networks are fixed inputs —
// generated from topoSeed, not from -seed — because a power-law topology's
// event count swings ±10 % with its seed and a TOP2 cut's window count by
// half: spread that says nothing about the program. -seed draws what runs on the network: the HTTP
// traffic, the profile, the submission sequence, the message endpoints.
type sizes struct {
	flatRouters, flatHosts, clients, servers int
	simHorizon                               des.Time

	mapASes, mapRoutersPerAS, mapHosts, mapEngines int
	mapProfileHorizon                              des.Time

	dist simcheck.Scenario // Seed is overwritten per run

	svcRouters, svcHosts int
	svcSeconds           float64
	svcApp               string // "" is background HTTP only

	ingestRouters, ingestHosts, ingestBurst int
	ingestFill                              int // bursts per connection before the first timed one
}

const (
	topoSeed = 1
	// parEngines is par-windows' engine count: one per core of the box it
	// was sized on, not the issue's four. With four engines on two vCPUs every
	// barrier waits on the OS scheduler and ten runs of one seed spread by
	// ±12 %; with two they spread by ±3 % and the barrier is still 40 % of
	// the engines' time.
	parEngines = 2
)

// fullSizes are the issue's sizes scaled to the driver's budget: runs are
// 10 s, not 20 s, so map-sweep maps 50 AS × 120 routers instead of 50 × 200
// (a third of the time per op) and dist-k4 simulates 4 s instead of 8 s; no
// workload is dropped. map-sweep keeps 50 ASes: HPROF contracts each AS to a
// few supernodes, and with fewer ASes than ≈3 per engine it leaves engines
// empty, which the output check refuses.
var fullSizes = sizes{
	flatRouters: 2000, flatHosts: 1000, clients: 800, servers: 190,
	simHorizon: 30 * des.Second,
	mapASes:    50, mapRoutersPerAS: 120, mapHosts: 3000, mapEngines: 16,
	mapProfileHorizon: 2 * des.Second,
	dist: simcheck.Scenario{
		Routers: 600, Hosts: 300, TCPFlows: 400, UDPSends: 200,
		HTTPClients: 200, HTTPServers: 60, Horizon: 4 * des.Second, Approach: core.TOP2,
	},
	svcRouters: 300, svcHosts: 60, svcSeconds: 0.5,
	ingestRouters: 60, ingestHosts: 64, ingestBurst: 4096, ingestFill: 12,
}

var tinySizes = sizes{
	flatRouters: 100, flatHosts: 40, clients: 24, servers: 8,
	simHorizon: 2 * des.Second,
	mapASes:    6, mapRoutersPerAS: 30, mapHosts: 60, mapEngines: 2,
	mapProfileHorizon: des.Second,
	dist: simcheck.Scenario{
		Routers: 60, Hosts: 30, TCPFlows: 20, UDPSends: 10,
		HTTPClients: 4, HTTPServers: 2, Horizon: 500 * des.Millisecond, Approach: core.TOP2,
	},
	svcRouters: 40, svcHosts: 16, svcSeconds: 0.1, svcApp: "scalapack",
	ingestRouters: 30, ingestHosts: 16, ingestBurst: 256,
}

// sequential is the one-engine mapping (what runctl's profiling pass uses).
var sequential = &core.Mapping{Approach: core.RANDOM, MLL: core.MaxMLL, E: 1, Es: 1, Ec: 1}

// simCounts are the exact outputs of one packet simulation that must not
// depend on the engine count or on host speed.
type simCounts struct {
	events, delivered, dropped, retrans uint64
	started, completed                  int
}

func countsOf(r *netsim.Result) simCounts {
	return simCounts{r.TotalEvents, r.DeliveredBits, r.Dropped, r.Retransmissions, r.FlowsStarted, r.FlowsCompleted}
}

// simInst is seq-packet (engines 1) and par-windows (engines 2): the same
// Setup and traffic, one BuildSim + Run per op.
type simInst struct {
	e       env
	st      *experiments.Setup
	m       *core.Mapping
	engines int
	want    simCounts // every op must reproduce these
	refWall float64   // par-windows: wall of the N=1 reference run

	last   netsim.Result
	flight *flight.Report // last traced op, par-windows
}

func buildFlat(e env, engines int) (*experiments.Setup, error) {
	sz := e.size
	sp := e.sp.child("topology.GenerateFlat")
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: sz.flatRouters, Hosts: sz.flatHosts, Seed: topoSeed})
	sp.end()
	if err != nil {
		return nil, err
	}
	sc := experiments.Scale{
		Name: "bench", Routers: sz.flatRouters, Hosts: sz.flatHosts,
		Clients: sz.clients, Servers: sz.servers, AppHosts: 7,
		Engines: engines, Horizon: sz.simHorizon, EventCost: 15 * des.Microsecond,
		Seed: e.cfg.seed,
	}
	// NewSetup is interdomain.New + Prepare(hosts) plus role selection; the
	// routing warm-up is all but a millisecond of it.
	sp = e.sp.child("experiments.NewSetup")
	defer sp.end()
	return experiments.NewSetup(net, sc, false)
}

func setupSeqPacket(e env) (instance, error) {
	st, err := buildFlat(e, 1)
	if err != nil {
		return nil, err
	}
	return &simInst{e: e, st: st, m: sequential, engines: 1}, nil
}

func setupParWindows(e env) (instance, error) {
	k := parEngines
	st, err := buildFlat(e, k)
	if err != nil {
		return nil, err
	}
	// The mapping is part of the fixed input: seeded like the topology, so
	// the window count does not jump between -seed values.
	sp := e.sp.child("core.Map")
	m, err := core.Map(st.Net, core.TOP2, core.Config{Engines: k, Sync: st.Sync, Seed: topoSeed}, nil)
	sp.end()
	if err != nil {
		return nil, err
	}
	// The N=1 reference: what every parallel op must reproduce, and the base of
	// pdes.speedup_vs_n1.
	seq := *st
	seq.Scale.Engines = 1
	sp = e.sp.child("reference N=1")
	t0 := time.Now()
	sim, _, err := seq.BuildSim(sequential, experiments.ScaLapack, runspec.RunSpec{})
	if err != nil {
		sp.end()
		return nil, err
	}
	ref := sim.Run()
	wall := time.Since(t0).Seconds()
	sp.end()
	if ref.TotalEvents == 0 {
		return nil, fmt.Errorf("reference run executed no events")
	}
	return &simInst{e: e, st: st, m: m, engines: k, want: countsOf(&ref), refWall: wall}, nil
}

func (s *simInst) clients() int { return 1 }

func (s *simInst) op(c *opCtx) (opResult, error) {
	var spec runspec.RunSpec
	var tel *telemetry.SimTelemetry
	sp := c.sp.child("Setup.BuildSim")
	if c.traced && s.engines > 1 {
		// The existing per-window registry, unmodified; the ring holds every
		// window of one op.
		tel = telemetry.New(s.engines, 1<<18)
		spec.Telemetry = tel
	}
	sim, _, err := s.st.BuildSim(s.m, experiments.ScaLapack, spec)
	sp.end()
	if err != nil {
		return opResult{}, err
	}
	sp = c.sp.child("Sim.Run")
	res := sim.Run()
	sp.end()
	got := countsOf(&res)
	if s.want == (simCounts{}) {
		s.want = got // seq-packet: the first op is the reference
	}
	switch {
	case res.Err != nil:
		return opResult{}, res.Err
	case got.events == 0:
		return opResult{}, fmt.Errorf("run executed no events")
	case got != s.want:
		return opResult{}, fmt.Errorf("k=%d totals %+v differ from the reference %+v", s.engines, got, s.want)
	case s.engines == 1 && res.RemoteEvents != 0:
		return opResult{}, fmt.Errorf("one engine shipped %d remote events", res.RemoteEvents)
	}
	s.last = res
	if tel != nil {
		sp = c.sp.child("flight.Analyze")
		s.flight = flight.Analyze(tel.Windows.Snapshot(), 1)
		sp.end()
	}
	return opResult{work: float64(got.events)}, nil
}

func (s *simInst) digest() uint64 {
	w := s.want
	return foldDigest(w.events, w.delivered, w.dropped, w.retrans, uint64(w.started), uint64(w.completed),
		uint64(s.last.Windows), s.last.RemoteEvents, uint64(s.last.ModeledTimeNS))
}

func (s *simInst) extraRSS() uint64 { return 0 }
func (s *simInst) close()           {}

func (s *simInst) layers(ls layerSet, tr *tracer, sp span, ops []opSample) {
	setupLayers(ls, tr, s.st)
	res := &s.last
	events := float64(res.TotalEvents)
	ls["netsim.build_s"] = median(tr.seconds("Setup.BuildSim"))
	run := median(tr.seconds("Sim.Run"))
	ls["netsim.run_s"] = run
	ls["netsim.events"] = events
	ls["netsim.flows_completed"] = float64(res.FlowsCompleted)
	ls["netsim.dropped"] = float64(res.Dropped)
	ls["netsim.retransmissions"] = float64(res.Retransmissions)
	var alloc []float64
	for _, o := range ops {
		alloc = append(alloc, float64(o.alloc)/events)
	}
	ls["netsim.alloc_b_per_event"] = median(alloc)

	ls["pdes.windows"] = float64(res.Windows)
	ls["pdes.remote_events"] = float64(res.RemoteEvents)
	ls["pdes.modeled_time_s"] = float64(res.ModeledTimeNS) / 1e9
	ls["pdes.modeled_imbalance"] = metrics.LoadImbalance(res.EngineEvents)

	depth := 0
	for _, d := range res.MaxPending {
		if d > depth {
			depth = d
		}
	}
	ls["des.max_pending"] = float64(depth)
	psp := sp.child("probe des")
	ls["des.event_ns"], ls["des.allocs_per_event"] = probeKernel(depth, 2_000_000)
	psp.end()
	psp = sp.child("probe routing.NextLink")
	ls["routing.nextlink_ns"] = probeNextLink(s.st, s.e.cfg.seed, 2_000_000)
	psp.end()

	if s.engines == 1 {
		// Host time per simulated event, and what is left of it once the
		// kernel's own schedule+step cost is taken out (computed).
		ls["netsim.event_ns"] = run * 1e9 / events
		ls["netsim.model_ns_per_event"] = ls["netsim.event_ns"] - ls["des.event_ns"]
		return
	}
	ls["core.map_s"] = median(tr.seconds("core.Map"))
	ls["core.edge_cut"] = float64(s.m.EdgeCut)
	ls["core.achieved_mll_us"] = float64(s.m.MLL) / float64(des.Microsecond)
	ls["core.mapping_efficiency"] = s.m.E
	if f := s.flight; f != nil {
		total := float64(f.TotalComputeNS + f.TotalBarrierNS + f.TotalExchangeNS)
		ls["pdes.compute_share"] = float64(f.TotalComputeNS) / total
		ls["pdes.barrier_share"] = float64(f.TotalBarrierNS) / total
		ls["pdes.exchange_share"] = float64(f.TotalExchangeNS) / total
		ls["pdes.parallel_efficiency"] = f.MeanEfficiency
	}
	// What a window costs beyond the events in it (computed): the k-engine
	// wall minus the sequential wall spread over the cores there are.
	cores := s.engines
	if n := runtime.NumCPU(); n < cores {
		cores = n
	}
	ls["pdes.window_us"] = (run - s.refWall/float64(cores)) * 1e6 / float64(res.Windows)
	ls["pdes.speedup_vs_n1"] = s.refWall / (run + ls["netsim.build_s"])
	psp = sp.child("probe pdes empty windows")
	ls["pdes.empty_window_ns"] = probeEmptyWindows(s.engines, 20_000)
	psp.end()
}

// setupLayers fills the set-up metrics every Setup-based workload shares.
func setupLayers(ls layerSet, tr *tracer, st *experiments.Setup) {
	gen := tr.seconds("topology.GenerateFlat")
	gen = append(gen, tr.seconds("mabrite.Generate")...)
	ls["topology.generate_s"] = median(gen)
	ls["routing.prepare_s"] = median(tr.seconds("experiments.NewSetup"))
	ls["routing.table_mb"] = float64(st.Router.TableBytes()) / 1e6
}

// warmPairs draws (router, destination host) pairs whose routes the set-up
// already computed.
func warmPairs(st *experiments.Setup, seed int64, n int) (cur, dst []model.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	var routers []model.NodeID
	for i := range st.Net.Nodes {
		if st.Net.Nodes[i].Kind == model.Router {
			routers = append(routers, model.NodeID(i))
		}
	}
	for i := 0; i < n; i++ {
		cur = append(cur, routers[rng.Intn(len(routers))])
		dst = append(dst, st.Hosts[rng.Intn(len(st.Hosts))])
	}
	return cur, dst
}
