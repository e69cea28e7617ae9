// BGP validation study — the experiments the paper's Section 7 proposes as
// future work, runnable today:
//
//  1. Static comparison: how similar are the generated policy routes to
//     unconstrained shortest AS paths? (Route-table similarity and
//     policy-induced path inflation.)
//  2. Dynamic behaviour: a BGP beacon — one stub AS announces and
//     withdraws its prefix on a schedule — showing update storms and the
//     withdrawal/announcement message asymmetry (path hunting).
package main

import (
	"fmt"
	"log"

	"massf/internal/mabrite"
	"massf/internal/routing/bgp"
	"massf/internal/routing/interdomain"
)

func main() {
	net, err := mabrite.Generate(mabrite.Options{
		ASes: 50, RoutersPerAS: 4, Hosts: 0, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	routes := interdomain.New(net)
	policy := routes.RIB()

	// --- Static study: policy routing vs shortest paths ----------------
	shortest := bgp.ShortestPathRIB(net)
	cmp := bgp.Compare(policy, shortest)
	fmt.Println("Static validation: generated BGP policy routes vs shortest AS paths")
	fmt.Printf("  AS pairs compared        %d\n", cmp.Pairs)
	fmt.Printf("  identical AS paths       %d (%.1f%%)\n", cmp.SamePath, pct(cmp.SamePath, cmp.Pairs))
	fmt.Printf("  identical next-hop AS    %d (%.1f%%)\n", cmp.SameNextHop, pct(cmp.SameNextHop, cmp.Pairs))
	fmt.Printf("  policy path inflation    %.3f× (policy paths vs shortest)\n", cmp.InflationA)
	fmt.Printf("  reachable only shortest  %d (policy denies transit: connectivity ≠ reachability)\n\n", cmp.OnlyB)

	// --- Dynamic study: a BGP beacon ------------------------------------
	beacon := int32(-1)
	for i := range net.ASes {
		if net.ASes[i].Class.String() == "stub" {
			beacon = int32(i)
			break
		}
	}
	if beacon < 0 {
		log.Fatal("no stub AS for the beacon")
	}
	fmt.Printf("Dynamic validation: BGP beacon at stub AS %d (3 announce/withdraw cycles)\n", beacon)
	fmt.Printf("  %-7s %-14s %-14s %-10s %-10s\n", "cycle", "withdraw msgs", "announce msgs", "reach(off)", "reach(on)")
	for i, c := range bgp.RunBeacon(net, beacon, 3) {
		fmt.Printf("  %-7d %-14d %-14d %-10d %-10d\n",
			i+1, c.WithdrawMsgs, c.AnnounceMsgs, c.ReachableAfterWithdraw, c.ReachableAfterAnnounce)
	}
	fmt.Println("\n(withdrawals trigger path hunting: neighbors try alternate routes before")
	fmt.Println(" giving up, so withdrawal bursts are at least as large as announcements)")
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
