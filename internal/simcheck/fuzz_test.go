package simcheck

import (
	"testing"

	"massf/internal/des"
)

// FuzzScenarioEquivalence feeds arbitrary seeds through the scenario
// generator and runs the sequential-vs-parallel oracle on a size-capped
// variant (one engine count, few flows, short horizon) so each execution
// stays cheap. Any divergence or invariant violation is a real conformance
// bug: the seed in the crasher reproduces it via `simcheck -repro`.
func FuzzScenarioEquivalence(f *testing.F) {
	f.Add(int64(1), byte(0))
	f.Add(int64(7), byte(1))
	f.Add(int64(42), byte(2))
	f.Fuzz(func(t *testing.T, seed int64, kSel byte) {
		sc := NewScenario(seed)
		sc.Ks = []int{[]int{2, 4, 8}[int(kSel)%3]}
		if sc.TCPFlows > 8 {
			sc.TCPFlows = 8
		}
		if sc.UDPSends > 8 {
			sc.UDPSends = 8
		}
		sc.HTTPClients, sc.HTTPServers = 0, 0
		if sc.Horizon > 200*des.Millisecond {
			sc.Horizon = 200 * des.Millisecond
		}
		if sc.MultiAS {
			if sc.ASes > 4 {
				sc.ASes = 4
			}
			if sc.RoutersPerAS > 8 {
				sc.RoutersPerAS = 8
			}
		} else if sc.Routers > 50 {
			sc.Routers = 50
		}
		if sc.Hosts > 20 {
			sc.Hosts = 20
		}
		rep, err := Check(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		for i := range rep.Runs {
			kr := &rep.Runs[i]
			if len(kr.Violations) > 0 {
				t.Fatalf("%s k=%d: invariant violation: %v", sc, kr.K, kr.Violations[0])
			}
			if len(kr.Divergences) > 0 {
				at, _ := kr.DivergedAt()
				t.Fatalf("%s k=%d: diverged from sequential reference: %v (earliest at %v)",
					sc, kr.K, kr.Divergences[0], at)
			}
		}
	})
}
