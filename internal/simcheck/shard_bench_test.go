package simcheck

import (
	"os"
	"testing"

	"massf/internal/core"
	"massf/internal/des"
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
		net, err := sc.buildNet()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := finishBundle(sc, net, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardSetupSliced measures worker setup after the refactor: the
// topology is decoded from the content-addressed artifact cache (warmed by
// the first run), only worker 0's slice of the k=4 partition is built and
// verified, and routing state is scoped and lazy — no trees at build time.
func BenchmarkShardSetupSliced(b *testing.B) {
	sc := shardBenchScenario()
	dir, err := os.MkdirTemp("", "massf-scache-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	spec := &distSpec{Scenario: sc, CacheDir: dir}
	net, err := scenarioNet(spec) // warm the artifact cache
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.Map(net, sc.Approach, core.Config{Engines: 4, Seed: sc.Seed}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wnet, err := scenarioNet(spec)
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
		if _, err := finishBundle(sc, wnet, sl.Owned); err != nil {
			b.Fatal(err)
		}
	}
}
