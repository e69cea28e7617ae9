// Quickstart: generate a small network, route it, run a parallel
// packet-level simulation with background web traffic, and print the
// paper's evaluation metrics — the shortest end-to-end path through the
// internal packages a program composes.
package main

import (
	"fmt"
	"log"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/metrics"
	"massf/internal/model"
	"massf/internal/netsim"
	"massf/internal/routing/interdomain"
	"massf/internal/topology"
	"massf/internal/traffic"
)

func main() {
	// 1. A 300-router single-AS power-law network with 80 hosts on a
	//    5000 mi × 5000 mi plane (latencies follow geography).
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 300, Hosts: 80, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d routers, %d hosts, %d links\n",
		net.NumRouters(), net.NumHosts(), len(net.Links))

	// 2. OSPF shortest-path routing over the whole network.
	routes := interdomain.New(net)

	// 3. Collect host ids and split them into web clients and servers.
	var hosts []model.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			hosts = append(hosts, model.NodeID(i))
		}
	}
	clients, servers := hosts[:60], hosts[60:]

	// 4. Map the network onto 8 simulation engine nodes with the
	//    hierarchical topology-based approach (no profiling run needed).
	mapping, err := core.Map(net, core.HTOP, core.Config{Engines: 8, Seed: 1}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HTOP mapping: achieved MLL %v, E = %.3f\n", mapping.MLL, mapping.E)

	// 5. Build the simulation: the conservative window is the mapping's
	//    achieved minimum link latency.
	sim, err := netsim.New(netsim.Config{
		Net: net, Routes: routes, Part: mapping.Part, Engines: 8,
		Window: mapping.MLL, End: 10 * des.Second, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 6. Background traffic: clients fetch ~50 KB files with 2 s think
	//    time.
	web := traffic.InstallHTTP(sim, traffic.HTTPConfig{
		Clients: clients, Servers: servers,
		MeanGap: 2 * des.Second, MeanFileBytes: 50_000, Seed: 3,
	})

	// 7. Run and report.
	res := sim.Run()
	rep := metrics.FromStats("HTOP", res.Stats, 15*des.Microsecond)
	fmt.Printf("simulated 10s of traffic: %d events (%d crossed engines), %d TCP flows completed\n",
		res.TotalEvents, res.RemoteEvents, res.FlowsCompleted)
	fmt.Printf("http: %d requests, %d responses, %d packets dropped\n",
		web.TotalRequests(), web.TotalResponses(), res.Dropped)
	fmt.Printf("modeled cluster time %.3fs | wall %.3fs | imbalance %.3f | parallel efficiency %.3f\n",
		rep.SimTimeSec, rep.WallSec, rep.Imbalance, rep.Efficiency)
}
