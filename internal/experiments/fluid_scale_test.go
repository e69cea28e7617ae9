package experiments_test

import (
	"os"
	"testing"
	"time"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/fluid"
	"massf/internal/model"
	"massf/internal/netsim"
	"massf/internal/routing/interdomain"
	"massf/internal/topology"
	"massf/internal/traffic"
)

// TestScale1MClientHybridRun is the hybrid-fidelity headline: one million
// simulated HTTP clients — closed request/think/response loops, ~50 KB
// mean transfers — carried by the analytic fluid plane over a
// 1000-router network, with a packet-level foreground population riding
// the same links, completed in one k=4 run. A million packet-level
// clients would be hopeless at this hardware budget; the fluid plane
// solves their entire timeline at setup and charges their load against
// the links the foreground packets traverse.
//
// The run logs its throughput (events/sec) and time compression
// (simulated seconds per wall second).
//
// Heavy (minutes, several GB): gated behind MASSF_SCALE=1.
func TestScale1MClientHybridRun(t *testing.T) {
	if os.Getenv("MASSF_SCALE") != "1" {
		t.Skip("1M-client hybrid scale run only runs with MASSF_SCALE=1")
	}
	const (
		routers = 1000
		hosts   = 3000
		clients = 1_000_000
		servers = 800
		engines = 4
		seed    = 7
	)
	horizon := 8 * des.Second

	buildStart := time.Now()
	net, err := topology.GenerateFlat(topology.FlatOptions{
		Routers: routers, Hosts: hosts, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	routes := interdomain.New(net)
	var hostIDs []model.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			hostIDs = append(hostIDs, model.NodeID(i))
		}
	}
	serverIDs := hostIDs[:servers]
	clientHosts := hostIDs[servers:]
	// A million clients over ~2200 attachment points: each client is its
	// own closed loop with its own RNG stream; hosts repeat, which is
	// exactly the "many clients behind one access link" shape.
	clientIDs := make([]model.NodeID, clients)
	for i := range clientIDs {
		clientIDs[i] = clientHosts[i%len(clientHosts)]
	}
	bgFlows, next, _ := traffic.FluidHTTP(traffic.HTTPConfig{
		Clients: clientIDs, Servers: serverIDs,
		MeanGap: 5 * des.Second, MeanFileBytes: 50_000, Seed: seed,
	}, horizon)
	plane, err := fluid.Build(fluid.Config{
		Net: net, Routes: routes, End: horizon,
		Quantum: 15 * des.Millisecond, Next: next,
	}, bgFlows)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Map(net, core.TOP2, core.Config{Engines: engines, Seed: seed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	window := m.Window()
	sim, err := netsim.New(netsim.Config{
		Net: net, Routes: routes, Part: m.Part, Engines: engines,
		Window: window, End: horizon, Fluid: plane,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Packet-level foreground sharing the fluid-loaded links, so the run
	// exercises the hybrid coupling, not just the fluid plane.
	fg := traffic.InstallHTTP(sim, traffic.HTTPConfig{
		Clients: clientHosts[:400], Servers: serverIDs[:100],
		MeanGap: 1 * des.Second, MeanFileBytes: 50_000, Seed: seed + 1,
	})
	buildSec := time.Since(buildStart).Seconds()

	runStart := time.Now()
	res := sim.Run()
	wallSec := time.Since(runStart).Seconds()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.FluidStarted < clients {
		t.Errorf("FluidStarted = %d, want ≥ %d (every client's first request lands before the horizon)",
			res.FluidStarted, clients)
	}
	if res.FluidCompleted == 0 {
		t.Error("no fluid flow completed")
	}
	if res.FlowsStarted == 0 || fg.TotalResponses() == 0 {
		t.Errorf("foreground packet traffic degenerate: %d flows, %d responses",
			res.FlowsStarted, fg.TotalResponses())
	}
	eventsPerSec := float64(res.TotalEvents) / wallSec
	simPerWall := horizon.Seconds() / wallSec
	t.Logf("build %.1fs: %d fluid flows solved (%d clients), %d links", buildSec,
		res.FluidStarted, clients, len(net.Links))
	t.Logf("run   %.1fs: %d events (%.0f events/sec), %.2f simulated sec per wall sec, %d fluid completed, %.1f Gbit fluid payload",
		wallSec, res.TotalEvents, eventsPerSec, simPerWall,
		res.FluidCompleted, float64(res.FluidDeliveredBits)/1e9)
}
