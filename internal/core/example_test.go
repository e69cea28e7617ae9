package core_test

import (
	"fmt"

	"massf/internal/cluster"
	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/topology"
)

// ExampleMap shows the hierarchical profile-free mapping of a network onto
// simulation engines and the conservative window it guarantees.
func ExampleMap() {
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 400, Hosts: 50, Seed: 7})
	if err != nil {
		panic(err)
	}
	m, err := core.Map(net, core.HTOP, core.Config{Engines: 8, Seed: 1}, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("approach:", m.Approach)
	fmt.Println("engines used:", len(m.EstLoad))
	fmt.Println("MLL exceeds sync cost:", m.MLL > des.Time(cluster.DefaultTeraGrid().SyncCost(8)))
	// Output:
	// approach: HTOP
	// engines used: 8
	// MLL exceeds sync cost: true
}
