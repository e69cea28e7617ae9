// Package massf is a realistic large-scale online network simulator — a Go
// reproduction of MaSSF, the parallel network simulation engine of the
// MicroGrid system (Liu & Chien, "Realistic Large-Scale Online Network
// Simulation", SC 2004).
//
// It provides, behind one facade:
//
//   - Topology generation: single-AS power-law networks (BRITE-style) and
//     Internet-like multi-AS networks with automatically configured BGP
//     routing policies (maBrite).
//   - Routing: intra-domain OSPF shortest paths and inter-domain BGP4
//     policy routing (customer/peer/provider preferences, no-valley
//     export).
//   - A packet-level network simulator (IP forwarding, drop-tail queues,
//     TCP Reno/UDP transport) on a conservative parallel discrete event
//     engine whose engine nodes advance in minimum-link-latency windows.
//   - The paper's load-balance mapping family — TOP, TOP2, PROF, PROF2 and
//     the hierarchical HTOP and HPROF — built on a from-scratch multilevel
//     k-way graph partitioner.
//   - Traffic models (HTTP background; ScaLapack and GridNPB foreground
//     applications), metrics (achieved MLL, load imbalance, parallel
//     efficiency), online live-traffic injection, and a DML configuration
//     format.
//
// The quickest path from nothing to a running parallel simulation:
//
//	net, _ := massf.GenerateFlat(massf.FlatOptions{Routers: 500, Hosts: 100, Seed: 1})
//	routes := massf.NewRouting(net)
//	mapping, _ := massf.Map(net, massf.HPROF, massf.MappingConfig{Engines: 8}, prof)
//	sim, _ := massf.NewSimulation(massf.SimConfig{
//	    Net: net, Routes: routes, Part: mapping.Part, Engines: 8,
//	    Window: mapping.MLL, End: 10 * massf.Second,
//	})
//	massf.InstallHTTP(sim, massf.HTTPConfig{Clients: clients, Servers: servers})
//	result := sim.Run()
//
// See examples/ for complete programs and DESIGN.md for the system map.
package massf

import (
	"io"

	"massf/internal/agent"
	"massf/internal/cluster"
	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/dml"
	"massf/internal/mabrite"
	"massf/internal/metrics"
	"massf/internal/model"
	"massf/internal/netsim"
	"massf/internal/profile"
	"massf/internal/routing/bgp"
	"massf/internal/routing/interdomain"
	"massf/internal/routing/ospf"
	"massf/internal/topology"
	"massf/internal/traffic"
)

// Core simulated-time type and units.
type Time = des.Time

// Time units.
const (
	Microsecond = des.Microsecond
	Millisecond = des.Millisecond
	Second      = des.Second
)

// Network model types.
type (
	// Network is the virtual network: nodes, links, and AS structure.
	Network = model.Network
	// NodeID indexes Network.Nodes.
	NodeID = model.NodeID
)

// Host is the node kind of an end host (the other kind is a router).
const Host = model.Host

// Topology generation.
type (
	// FlatOptions configures GenerateFlat (single-AS, Section 4 of the
	// paper).
	FlatOptions = topology.FlatOptions
	// MultiASOptions configures GenerateMultiAS (maBrite, Section 5).
	MultiASOptions = mabrite.Options
)

// GenerateFlat builds a single-AS power-law network on a geographic plane.
func GenerateFlat(opts FlatOptions) (*Network, error) { return topology.GenerateFlat(opts) }

// GenerateMultiAS builds an Internet-like multi-AS network with realistic
// BGP routing configuration.
func GenerateMultiAS(opts MultiASOptions) (*Network, error) { return mabrite.Generate(opts) }

// Routing.
type (
	// Routing resolves hop-by-hop forwarding over a network, combining
	// per-AS OSPF with converged BGP4 policy routes.
	Routing = interdomain.Router
	// OSPFDomain is a single shortest-path routing domain.
	OSPFDomain = ospf.Domain
	// BGPRib is the converged inter-domain routing state.
	BGPRib = bgp.RIB
)

// NewRouting converges BGP (for multi-AS networks) and prepares OSPF
// domains. The result implements the simulator's Routes interface.
func NewRouting(net *Network) *Routing { return interdomain.New(net) }

// NewOSPF builds a standalone OSPF domain over the member nodes (nil for
// the whole network).
func NewOSPF(net *Network, members []NodeID) *OSPFDomain { return ospf.NewDomain(net, members) }

// Load-balance mapping (the paper's contribution).
type (
	// Approach identifies a mapping strategy.
	Approach = core.Approach
	// MappingConfig tunes the mapper.
	MappingConfig = core.Config
	// Mapping is a computed node→engine assignment with its achieved MLL
	// and evaluation.
	Mapping = core.Mapping
	// Profile is measured traffic from a profiling run, consumed by the
	// PROF approaches.
	Profile = profile.Profile
)

// The mapping approaches the examples compare (core has the full family).
const (
	TOP2  = core.TOP2
	PLACE = core.PLACE
	PROF2 = core.PROF2
	HTOP  = core.HTOP
	HPROF = core.HPROF
)

// MaxMLL is the window used when a partition cuts nothing.
const MaxMLL = core.MaxMLL

// Map partitions the network for the given approach. prof may be nil for
// non-profile-based approaches.
func Map(net *Network, a Approach, cfg MappingConfig, prof *Profile) (*Mapping, error) {
	return core.Map(net, a, cfg, prof)
}

// ProfileFromResult captures a traffic profile from a completed run.
func ProfileFromResult(res *Result, horizon Time) *Profile {
	return profile.FromResult(res, horizon)
}

// ReadProfile / WriteProfile exchange profiles through files.
func ReadProfile(r io.Reader) (*Profile, error) { return profile.Read(r) }

// Simulation.
type (
	// SimConfig configures a packet-level simulation in full detail: the
	// network, routes, partition, barrier window, horizon and seed.
	SimConfig = netsim.Config
	// Simulation is a configured simulation; inject traffic, then Run.
	Simulation = netsim.Sim
	// Result is the outcome of a run.
	Result = netsim.Result
	// SyncCostModel models the cluster's barrier cost C(N).
	SyncCostModel = cluster.SyncCostModel
)

// NewSimulation builds a simulation from the configuration.
func NewSimulation(cfg SimConfig) (*Simulation, error) { return netsim.New(cfg) }

// TeraGridSync returns the synchronization cost model fit to the paper's
// Figure 5 (the TeraGrid cluster).
func TeraGridSync() SyncCostModel { return cluster.DefaultTeraGrid() }

// MeasuredSync returns a model that measures real goroutine barrier costs
// on the host.
func MeasuredSync() SyncCostModel { return cluster.NewMeasured() }

// Traffic workloads.
type (
	// HTTPConfig describes the background web workload.
	HTTPConfig = traffic.HTTPConfig
	// HTTPStats counts background activity.
	HTTPStats = traffic.HTTPStats
	// Workflow is an application data-flow graph (GridNPB style).
	Workflow = traffic.Workflow
	// WorkflowStats reports workflow rounds.
	WorkflowStats = traffic.WorkflowStats
	// ScaLapackConfig tunes the ScaLapack traffic model.
	ScaLapackConfig = traffic.ScaLapackConfig
)

// InstallHTTP wires background HTTP traffic into a simulation.
func InstallHTTP(s *Simulation, cfg HTTPConfig) *HTTPStats { return traffic.InstallHTTP(s, cfg) }

// InstallWorkflow wires an application workflow into a simulation; it
// re-runs until the horizon.
func InstallWorkflow(s *Simulation, w Workflow, start Time) (*WorkflowStats, error) {
	return traffic.InstallWorkflow(s, w, start)
}

// ScaLapackWorkflow models the ScaLapack application's traffic; hosts[0]
// is the root.
func ScaLapackWorkflow(hosts []NodeID, cfg ScaLapackConfig) Workflow {
	return traffic.ScaLapack(hosts, cfg)
}

// DefaultScaLapack returns the paper-like ScaLapack parameters.
func DefaultScaLapack() ScaLapackConfig { return traffic.DefaultScaLapack() }

// GridNPBWorkflows returns the paper's GridNPB combination: Helical Chain,
// Visualization Pipeline, and Mixed Bag.
func GridNPBWorkflows(hosts []NodeID) []Workflow { return traffic.GridNPB(hosts) }

// Online simulation (live traffic).
type (
	// Agent bridges live goroutines and the simulated network (the
	// paper's Agent + WrapSocket).
	Agent = agent.Agent
)

// NewAgent installs a live-traffic agent on the simulation. Call before
// Run; combine with SimConfig.RealTimeFactor for wall-clock pacing.
func NewAgent(s *Simulation, pumpInterval Time) *Agent { return agent.New(s, pumpInterval) }

// Virtual compute resources (MicroGrid's CPU virtualization).
type (
	// HostCPUs maps hosts to processor-sharing virtual CPUs.
	HostCPUs = traffic.HostCPUs
)

// NewHostCPUs creates virtual CPUs for hosts (speed nil ⇒ 1.0 everywhere).
func NewHostCPUs(s *Simulation, hosts []NodeID, speed func(NodeID) float64) *HostCPUs {
	return traffic.NewHostCPUs(s, hosts, speed)
}

// InstallWorkflowCPU is InstallWorkflow with task compute running on the
// hosts' shared virtual CPUs (co-located tasks contend).
func InstallWorkflowCPU(s *Simulation, w Workflow, start Time, cpus *HostCPUs) (*WorkflowStats, error) {
	return traffic.InstallWorkflowCPU(s, w, start, cpus)
}

// BGP dynamics and validation studies (the paper's Section 7 future work).
type (
	// BGPSimulator is the incremental BGP state machine (announce,
	// withdraw, run to quiescence).
	BGPSimulator = bgp.Simulator
	// BeaconCycle is one announce/withdraw round of a beacon experiment.
	BeaconCycle = bgp.BeaconCycle
	// RIBComparison quantifies route-table similarity between two RIBs.
	RIBComparison = bgp.Comparison
)

// NewBGPSimulator builds an idle incremental BGP simulator over net's AS
// graph.
func NewBGPSimulator(net *Network) *BGPSimulator { return bgp.NewSimulator(net) }

// RunBeacon flaps an AS's prefix and reports per-cycle update counts and
// reachability — the BGP Beacons study.
func RunBeacon(net *Network, beaconAS int32, cycles int) []BeaconCycle {
	return bgp.RunBeacon(net, beaconAS, cycles)
}

// CompareRIBs measures the similarity of two RIBs (same paths, same next
// hops, path inflation of a over b).
func CompareRIBs(a, b *BGPRib) RIBComparison { return bgp.Compare(a, b) }

// ShortestPathRIB computes the policy-free shortest-AS-path baseline for
// path-inflation studies.
func ShortestPathRIB(net *Network) *BGPRib { return bgp.ShortestPathRIB(net) }

// Metrics (Section 4.1 of the paper).
type (
	// Report bundles the evaluation metrics of one run.
	Report = metrics.Report
)

// LoadImbalance is the normalized standard deviation of per-engine event
// rates.
func LoadImbalance(engineEvents []uint64) float64 { return metrics.LoadImbalance(engineEvents) }

// ReportFor assembles the paper's metrics from a run result.
func ReportFor(approach string, res *Result, eventCost Time) Report {
	return metrics.FromStats(approach, res.Stats, eventCost)
}

// DML configuration files.

// SaveNetwork writes the network as a DML configuration document.
func SaveNetwork(w io.Writer, net *Network) error { return dml.WriteNetwork(w, net) }

// LoadNetwork reads a DML configuration document.
func LoadNetwork(r io.Reader) (*Network, error) { return dml.ReadNetwork(r) }
