// Multi-AS policy-routing study (a reduced Section 5 of the paper): build
// an Internet-like topology with maBrite — AS hierarchy, provider/customer
// and peer relationships, automatically configured BGP import/export
// policies — converge BGP4, inspect the policy routes, then run the
// GridNPB workload under the HPROF mapping.
package main

import (
	"fmt"
	"log"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/mabrite"
	"massf/internal/metrics"
	"massf/internal/model"
	"massf/internal/netsim"
	"massf/internal/profile"
	"massf/internal/routing/interdomain"
	"massf/internal/traffic"
)

func main() {
	net, err := mabrite.Generate(mabrite.Options{
		ASes: 12, RoutersPerAS: 40, Hosts: 200, Seed: 21,
	})
	if err != nil {
		log.Fatal(err)
	}
	classes := map[string]int{}
	for i := range net.ASes {
		classes[net.ASes[i].Class.String()]++
	}
	fmt.Printf("maBrite: %d ASes (%d core / %d regional / %d stub), %d routers, %d hosts\n",
		len(net.ASes), classes["core"], classes["regional"], classes["stub"],
		net.NumRouters(), net.NumHosts())

	// Converge BGP4 with the generated policies.
	routes := interdomain.New(net)
	rib := routes.RIB()
	_, unreachable := rib.Reachability()
	fmt.Printf("BGP converged in %d messages; %d policy-unreachable AS pairs\n",
		rib.Messages, unreachable)
	// Show a few AS paths (valley-free by construction).
	shown := 0
	for d := int32(1); d < int32(len(net.ASes)) && shown < 3; d++ {
		if p := rib.Path(0, d); p != nil {
			fmt.Printf("  AS0 → AS%d via path %v\n", d, p)
			shown++
		}
	}

	var hosts []model.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			hosts = append(hosts, model.NodeID(i))
		}
	}
	appHosts, clients, servers := hosts[:5], hosts[5:150], hosts[150:]

	// Profile, then map with HPROF.
	const horizon = 6 * des.Second
	profSim, err := netsim.New(netsim.Config{
		Net: net, Routes: routes, Engines: 1, Window: core.MaxMLL, End: horizon, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	installAll(profSim, clients, servers, appHosts)
	profRes := profSim.Run()
	prof := profile.FromResult(&profRes, horizon)

	mapping, err := core.Map(net, core.HPROF, core.Config{Engines: 8, Seed: 2}, prof)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HPROF: Tmll %v (%d candidates), achieved MLL %v, E = %.3f\n",
		mapping.Tmll, mapping.Candidates, mapping.MLL, mapping.E)

	sim, err := netsim.New(netsim.Config{
		Net: net, Routes: routes, Part: mapping.Part, Engines: 8,
		Window: mapping.MLL, End: horizon, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	apps := installAll(sim, clients, servers, appHosts)
	res := sim.Run()
	rep := metrics.FromStats("HPROF", res.Stats, 15*des.Microsecond)
	fmt.Printf("simulated %v: %d events, %d flows completed, imbalance %.3f, efficiency %.3f\n",
		horizon, res.TotalEvents, res.FlowsCompleted, rep.Imbalance, rep.Efficiency)
	for _, ws := range apps {
		fmt.Printf("  GridNPB workflow: %d rounds, first round finished at %v\n",
			ws.Rounds, ws.FirstFinish)
	}
}

func installAll(sim *netsim.Sim, clients, servers, appHosts []model.NodeID) []*traffic.WorkflowStats {
	traffic.InstallHTTP(sim, traffic.HTTPConfig{
		Clients: clients, Servers: servers,
		MeanGap: 5 * des.Second, MeanFileBytes: 50_000, Seed: 4,
	})
	var out []*traffic.WorkflowStats
	for _, w := range traffic.GridNPB(appHosts) {
		ws, err := traffic.InstallWorkflow(sim, w, 0)
		if err != nil {
			log.Fatal(err)
		}
		out = append(out, ws)
	}
	return out
}
