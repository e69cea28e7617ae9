// Single-AS load-balance study (a reduced Section 4 of the paper): run the
// ScaLapack workload over a flat OSPF-routed power-law network under four
// mapping approaches — HPROF, PROF2, HTOP, TOP2 — and compare simulation
// time, achieved MLL, load imbalance, and parallel efficiency. The PROF
// approaches map from a profiling pass whose measured per-router event
// counts feed the partitioner.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"massf/internal/experiments"
	"massf/internal/runspec"
)

func main() {
	sc := experiments.Scenario{
		Flat:    &experiments.FlatSpec{Routers: 800, Hosts: 400},
		App:     "scalapack",
		RunSpec: runspec.RunSpec{Engines: 8, Seconds: 6, Seed: 11},
	}
	sc.Normalize()
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}
	net, multi, err := sc.Network()
	if err != nil {
		log.Fatal(err)
	}
	st, err := sc.Build(net, multi, experiments.Exec{})
	if err != nil {
		log.Fatal(err)
	}
	// One profiling pass, then every simulated approach end to end.
	ev, err := experiments.Evaluate(sc, st)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiling pass: %d events over %v\n\n", ev.Profile.TotalEvents(), sc.Horizon())

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "approach\tMLL\tsim time\timbalance\tefficiency\tapp rounds")
	for _, r := range ev.Rows {
		if r.Simulated {
			fmt.Fprintf(w, "%v\t%v\t%.2fs\t%.3f\t%.3f\t%d\n",
				r.Approach, r.MLL, r.Report.SimTimeSec, r.Report.Imbalance, r.Report.Efficiency, r.AppRounds)
		}
	}
	w.Flush()
	fmt.Println("\n(the hierarchical approaches trade a slightly coarser partition for a")
	fmt.Println(" much larger MLL, cutting synchronization and total simulation time — Sec 3.4)")
}
