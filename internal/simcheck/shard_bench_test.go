package simcheck

import (
	"testing"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/experiments"
	"massf/internal/topology"
)

// The BenchmarkShardSetup pair is the per-worker scenario setup cost before
// and after the slice refactor — ns/op is build wall time, B/op the bytes a
// worker allocates to materialize its scenario state. Run it with
// `go test -run='^$' -bench=BenchmarkShardSetup -benchmem -benchtime=2x ./internal/simcheck/`.

// shardBenchScenario is the acceptance scale for the memory win — a
// 20,000-router topology (paper scale) with 1,000 traffic endpoints, where
// routing state dominates setup.
func shardBenchScenario() Scenario {
	return Scenario{
		Seed: 7, Routers: 20000, Hosts: 1000,
		TCPFlows: 8, UDPSends: 8,
		Horizon: 100 * des.Millisecond, Approach: core.TOP2, Ks: []int{4},
	}
}

// BenchmarkShardSetupReplicated measures what every distributed worker paid
// before the refactor: regenerate the full topology and eagerly warm global
// routing trees for every traffic destination.
func BenchmarkShardSetupReplicated(b *testing.B) {
	sc := shardBenchScenario()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sc.setup(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardSetupSliced measures worker setup after the refactor, as a
// worker pays it: the topology is generated, only worker 0's slice of the
// k=4 partition is built and verified, and routing is warmed for every
// traffic destination but scoped — each tree keeps entries for the slice's
// owned nodes only.
func BenchmarkShardSetupSliced(b *testing.B) {
	sc := shardBenchScenario()
	es := sc.launch(4)
	net, _, err := es.Network() // the coordinator's copy, for the mapping
	if err != nil {
		b.Fatal(err)
	}
	m, err := mapOnly(net, sc.Approach, 4, sc.Seed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wnet, _, err := es.Network()
		if err != nil {
			b.Fatal(err)
		}
		sl, err := topology.BuildSlice(wnet, m.Part, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := sl.Verify(wnet, m.Part); err != nil {
			b.Fatal(err)
		}
		if _, err := es.Build(wnet, false, experiments.Exec{Slice: sl.Owned}); err != nil {
			b.Fatal(err)
		}
	}
}
