package netsim_test

import (
	"fmt"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/model"
	"massf/internal/netsim"
	"massf/internal/routing/interdomain"
	"massf/internal/topology"
)

// ExampleNew runs a minimal parallel simulation end to end.
func ExampleNew() {
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 100, Hosts: 20, Seed: 3})
	if err != nil {
		panic(err)
	}
	sim, err := netsim.New(netsim.Config{
		Net: net, Routes: interdomain.New(net), Engines: 1,
		Window: core.MaxMLL, End: 2 * des.Second,
	})
	if err != nil {
		panic(err)
	}
	var hosts []model.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			hosts = append(hosts, model.NodeID(i))
		}
	}
	done := false
	sim.StartFlowRecv(0, hosts[0], hosts[1], 50_000, func(des.Time) { done = true }, nil)
	res := sim.Run()
	fmt.Println("flow completed:", done)
	fmt.Println("events processed:", res.TotalEvents > 0)
	// Output:
	// flow completed: true
	// events processed: true
}
