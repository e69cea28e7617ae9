// Quickstart: generate a small network, route it, run a parallel
// packet-level simulation with background web traffic, and print the
// paper's evaluation metrics — the launch path every program takes, step
// by step.
package main

import (
	"context"
	"fmt"
	"log"

	"massf/internal/experiments"
	"massf/internal/runspec"
)

func main() {
	// A 300-router single-AS power-law network with 80 hosts, mapped onto 8
	// simulation engines with the hierarchical topology-based approach and
	// run for 10 simulated seconds of background web traffic.
	sc := experiments.Scenario{
		Flat:     &experiments.FlatSpec{Routers: 300, Hosts: 80},
		Approach: "HTOP",
		RunSpec:  runspec.RunSpec{Engines: 8, Seconds: 10, Seed: 42},
	}
	sc.Normalize()
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}
	net, multi, err := sc.Network()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d routers, %d hosts, %d links\n",
		net.NumRouters(), net.NumHosts(), len(net.Links))

	// Routing plus host roles: web clients and servers.
	st, err := sc.Build(net, multi, experiments.Exec{})
	if err != nil {
		log.Fatal(err)
	}
	// HTOP maps from the topology alone, so there is no profiling pass; the
	// conservative window is the mapping's achieved minimum link latency.
	ctx := context.Background()
	prof, err := sc.TrafficProfile(ctx, st)
	if err != nil {
		log.Fatal(err)
	}
	mapping, err := sc.Map(st, prof)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HTOP mapping: achieved MLL %v, E = %.3f\n", mapping.MLL, mapping.E)

	p, err := sc.Prepare(st, mapping, nil, experiments.Exec{})
	if err != nil {
		log.Fatal(err)
	}
	out := p.Run(ctx)
	res, rep := out.Result, out.Report
	fmt.Printf("simulated 10s of traffic: %d events (%d crossed engines), %d TCP flows completed\n",
		res.TotalEvents, res.RemoteEvents, res.FlowsCompleted)
	fmt.Printf("http: %d requests, %d responses, %d packets dropped\n",
		out.HTTP.TotalRequests(), out.HTTP.TotalResponses(), res.Dropped)
	fmt.Printf("modeled cluster time %.3fs | wall %.3fs | imbalance %.3f | parallel efficiency %.3f\n",
		rep.SimTimeSec, rep.WallSec, rep.Imbalance, rep.Efficiency)
}
