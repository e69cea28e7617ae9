// Single-AS load-balance study (a reduced Section 4 of the paper): run the
// ScaLapack workload over a flat OSPF-routed power-law network under four
// mapping approaches — TOP2, PROF2, HTOP, HPROF — and compare simulation
// time, achieved MLL, load imbalance, and parallel efficiency. The PROF
// approaches first execute a profiling pass whose measured per-router event
// counts feed the partitioner.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/metrics"
	"massf/internal/model"
	"massf/internal/netsim"
	"massf/internal/profile"
	"massf/internal/routing/interdomain"
	"massf/internal/topology"
	"massf/internal/traffic"
)

const (
	engines = 8
	horizon = 6 * des.Second
	cost    = 15 * des.Microsecond
)

func main() {
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 800, Hosts: 400, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	routes := interdomain.New(net)
	var hosts []model.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			hosts = append(hosts, model.NodeID(i))
		}
	}
	appHosts, clients, servers := hosts[:7], hosts[7:300], hosts[300:]

	install := func(sim *netsim.Sim) {
		traffic.InstallHTTP(sim, traffic.HTTPConfig{
			Clients: clients, Servers: servers,
			MeanGap: 5 * des.Second, MeanFileBytes: 50_000, Seed: 5,
		})
		if _, err := traffic.InstallWorkflow(sim,
			traffic.ScaLapack(appHosts, traffic.DefaultScaLapack()), 0); err != nil {
			log.Fatal(err)
		}
	}

	// Profiling pass (sequential): measure per-router load for PROF/HPROF.
	profSim, err := netsim.New(netsim.Config{
		Net: net, Routes: routes, Engines: 1, Window: core.MaxMLL, End: horizon, Seed: 9,
	})
	if err != nil {
		log.Fatal(err)
	}
	install(profSim)
	profRes := profSim.Run()
	prof := profile.FromResult(&profRes, horizon)
	fmt.Printf("profiling pass: %d events over %v\n\n", profRes.TotalEvents, horizon)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "approach\tMLL\tsim time\timbalance\tefficiency\tflows")
	for _, a := range []core.Approach{core.TOP2, core.PROF2, core.HTOP, core.HPROF} {
		mapping, err := core.Map(net, a, core.Config{Engines: engines, Seed: 9}, prof)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := netsim.New(netsim.Config{
			Net: net, Routes: routes, Part: mapping.Part, Engines: engines,
			Window: mapping.MLL, End: horizon, EventCost: cost, Seed: 9,
		})
		if err != nil {
			log.Fatal(err)
		}
		install(sim)
		res := sim.Run()
		rep := metrics.FromStats(a.String(), res.Stats, cost)
		fmt.Fprintf(w, "%v\t%v\t%.2fs\t%.3f\t%.3f\t%d\n",
			a, mapping.MLL, rep.SimTimeSec, rep.Imbalance, rep.Efficiency, res.FlowsCompleted)
	}
	w.Flush()
	fmt.Println("\n(the hierarchical approaches trade a slightly coarser partition for a")
	fmt.Println(" much larger MLL, cutting synchronization and total simulation time — Sec 3.4)")
}
