// Multi-AS policy-routing study (a reduced Section 5 of the paper): build
// an Internet-like topology with maBrite — AS hierarchy, provider/customer
// and peer relationships, automatically configured BGP import/export
// policies — converge BGP4, inspect the policy routes, then run the
// GridNPB workload under the HPROF mapping.
package main

import (
	"context"
	"fmt"
	"log"

	"massf/internal/experiments"
	"massf/internal/runspec"
)

func main() {
	sc := experiments.Scenario{
		MultiAS:  &experiments.MultiASSpec{ASes: 12, RoutersPerAS: 40, Hosts: 200},
		Approach: "HPROF",
		App:      "gridnpb",
		RunSpec:  runspec.RunSpec{Engines: 8, Seconds: 6, Seed: 21},
	}
	sc.Normalize()
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}
	net, multi, err := sc.Network()
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

	// Building the testbed converges BGP4 with the generated policies.
	st, err := sc.Build(net, multi, experiments.Exec{})
	if err != nil {
		log.Fatal(err)
	}
	rib := st.Router.RIB()
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

	// Profile, then map with HPROF.
	ctx := context.Background()
	prof, err := sc.TrafficProfile(ctx, st)
	if err != nil {
		log.Fatal(err)
	}
	mapping, err := sc.Map(st, prof)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HPROF: Tmll %v (%d candidates), achieved MLL %v, E = %.3f\n",
		mapping.Tmll, mapping.Candidates, mapping.MLL, mapping.E)

	p, err := sc.Prepare(st, mapping, nil, experiments.Exec{})
	if err != nil {
		log.Fatal(err)
	}
	out := p.Run(ctx)
	fmt.Printf("simulated %v: %d events, %d flows completed, imbalance %.3f, efficiency %.3f\n",
		sc.Horizon(), out.Result.TotalEvents, out.Result.FlowsCompleted,
		out.Report.Imbalance, out.Report.Efficiency)
	for _, ws := range out.Apps {
		fmt.Printf("  GridNPB workflow: %d rounds, first round finished at %v\n",
			ws.Rounds, ws.FirstFinish)
	}
}
