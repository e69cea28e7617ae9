package massf_test

import (
	"fmt"

	"massf"
)

// ExampleMap shows the hierarchical profile-free mapping of a network onto
// simulation engines and the conservative window it guarantees.
func ExampleMap() {
	net, err := massf.GenerateFlat(massf.FlatOptions{Routers: 400, Hosts: 50, Seed: 7})
	if err != nil {
		panic(err)
	}
	m, err := massf.Map(net, massf.HTOP, massf.MappingConfig{Engines: 8, Seed: 1}, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("approach:", m.Approach)
	fmt.Println("engines used:", len(m.EstLoad))
	fmt.Println("MLL exceeds sync cost:", m.MLL > massf.Time(massf.TeraGridSync().SyncCost(8)))
	// Output:
	// approach: HTOP
	// engines used: 8
	// MLL exceeds sync cost: true
}

// ExampleNewSimulation runs a minimal parallel simulation end to end.
func ExampleNewSimulation() {
	net, err := massf.GenerateFlat(massf.FlatOptions{Routers: 100, Hosts: 20, Seed: 3})
	if err != nil {
		panic(err)
	}
	sim, err := massf.NewSimulation(massf.SimConfig{
		Net: net, Routes: massf.NewRouting(net), Engines: 1,
		Window: massf.MaxMLL, End: 2 * massf.Second, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	var hosts []massf.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == massf.Host {
			hosts = append(hosts, massf.NodeID(i))
		}
	}
	done := false
	sim.StartFlowRecv(0, hosts[0], hosts[1], 50_000, func(massf.Time) { done = true }, nil)
	res := sim.Run()
	fmt.Println("flow completed:", done)
	fmt.Println("events processed:", res.TotalEvents > 0)
	// Output:
	// flow completed: true
	// events processed: true
}

// ExampleRunBeacon demonstrates the dynamic BGP study: withdrawing and
// re-announcing a prefix, observing reachability flip.
func ExampleRunBeacon() {
	net, err := massf.GenerateMultiAS(massf.MultiASOptions{ASes: 8, RoutersPerAS: 3, Seed: 2})
	if err != nil {
		panic(err)
	}
	cycles := massf.RunBeacon(net, 3, 1)
	c := cycles[0]
	fmt.Println("reachable after withdraw:", c.ReachableAfterWithdraw)
	fmt.Println("everyone back after announce:", c.ReachableAfterAnnounce == len(net.ASes)-1)
	// Output:
	// reachable after withdraw: 0
	// everyone back after announce: true
}
