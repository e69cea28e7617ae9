package massf_test

import (
	"testing"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/mabrite"
	"massf/internal/metrics"
	"massf/internal/model"
	"massf/internal/netsim"
	"massf/internal/profile"
	"massf/internal/routing/bgp"
	"massf/internal/routing/interdomain"
	"massf/internal/topology"
	"massf/internal/traffic"
)

// TestFacadeEndToEnd composes the library the way a program does: a
// profiling run on one engine, an HPROF mapping onto four from that
// profile, and a parallel run of background HTTP beside ScaLapack under
// the mapping.
func TestFacadeEndToEnd(t *testing.T) {
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 200, Hosts: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	routes := interdomain.New(net)

	var hosts []model.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			hosts = append(hosts, model.NodeID(i))
		}
	}

	// Profiling pass on one engine.
	profSim, err := netsim.New(netsim.Config{
		Net: net, Routes: routes, Engines: 1,
		Window: core.MaxMLL, End: 4 * des.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	traffic.InstallHTTP(profSim, traffic.HTTPConfig{
		Clients: hosts[:30], Servers: hosts[30:40], MeanGap: des.Second, Seed: 2,
	})
	profRes := profSim.Run()
	prof := profile.FromResult(&profRes, 4*des.Second)

	// HPROF mapping.
	mapping, err := core.Map(net, core.HPROF, core.Config{Engines: 4, Seed: 3}, prof)
	if err != nil {
		t.Fatal(err)
	}
	if mapping.MLL <= 0 {
		t.Fatal("mapping has no MLL")
	}

	// Parallel run under the mapping.
	sim, err := netsim.New(netsim.Config{
		Net: net, Routes: routes, Part: mapping.Part, Engines: 4,
		Window: mapping.MLL, End: 4 * des.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	httpStats := traffic.InstallHTTP(sim, traffic.HTTPConfig{
		Clients: hosts[:30], Servers: hosts[30:40], MeanGap: des.Second, Seed: 2,
	})
	ws, err := traffic.InstallWorkflow(sim, traffic.ScaLapack(hosts[40:45]), 0)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.FlowsCompleted == 0 || httpStats.TotalResponses() == 0 {
		t.Fatal("no traffic completed")
	}
	if ws.Rounds == 0 {
		t.Fatal("application made no progress")
	}
	rep := metrics.FromStats("HPROF", res.Stats, 15*des.Microsecond)
	if rep.Efficiency <= 0 || rep.SimTimeSec <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if metrics.LoadImbalance(res.EngineEvents) < 0 {
		t.Fatal("negative imbalance")
	}
}

// TestFacadeBGPDynamics runs the BGP studies on one maBrite network:
// incremental convergence, a beacon cycle, and policy against
// shortest-path RIBs.
func TestFacadeBGPDynamics(t *testing.T) {
	net, err := mabrite.Generate(mabrite.Options{ASes: 10, RoutersPerAS: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sim := bgp.NewSimulator(net)
	for as := range net.ASes {
		sim.Announce(int32(as))
	}
	if sim.Run() == 0 {
		t.Fatal("no BGP messages")
	}
	cycles := bgp.RunBeacon(net, 2, 1)
	if len(cycles) != 1 || cycles[0].AnnounceMsgs == 0 {
		t.Fatalf("beacon: %+v", cycles)
	}
	policy := interdomain.New(net).RIB()
	cmp := bgp.Compare(policy, bgp.ShortestPathRIB(net))
	if cmp.Pairs == 0 || cmp.InflationA < 1 {
		t.Fatalf("comparison: %+v", cmp)
	}
}
