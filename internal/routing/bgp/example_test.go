package bgp_test

import (
	"fmt"

	"massf/internal/mabrite"
	"massf/internal/routing/bgp"
)

// ExampleRunBeacon demonstrates the dynamic BGP study: withdrawing and
// re-announcing a prefix, observing reachability flip.
func ExampleRunBeacon() {
	net, err := mabrite.Generate(mabrite.Options{ASes: 8, RoutersPerAS: 3, Seed: 2})
	if err != nil {
		panic(err)
	}
	cycles := bgp.RunBeacon(net, 3, 1)
	c := cycles[0]
	fmt.Println("reachable after withdraw:", c.ReachableAfterWithdraw)
	fmt.Println("everyone back after announce:", c.ReachableAfterAnnounce == len(net.ASes)-1)
	// Output:
	// reachable after withdraw: 0
	// everyone back after announce: true
}
