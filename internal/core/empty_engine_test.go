package core_test

import (
	"testing"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/experiments"
	"massf/internal/mabrite"
)

// TestHPROFFillsEveryEngine: on the benchmark's map-sweep set-up at profile
// seed 404, the chosen candidate's partition left engine 7 of 16 without a
// node, although its graph has 154 supernodes. Every engine gets one now.
func TestHPROFFillsEveryEngine(t *testing.T) {
	net, err := mabrite.Generate(mabrite.Options{ASes: 50, RoutersPerAS: 120, Hosts: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const engines = 16
	st, err := experiments.NewSetup(net, experiments.Scale{
		Name: "map-sweep", ASes: 50, RoutersPerAS: 120, Hosts: 3000, Clients: 2400, Servers: 570, AppHosts: 7,
		Engines: engines, Horizon: 2 * des.Second, EventCost: 15 * des.Microsecond, Seed: 404,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RunProfiling(experiments.ScaLapack); err != nil {
		t.Fatal(err)
	}
	m, err := core.Map(st.Net, core.HPROF, core.Config{Engines: engines, Sync: st.Sync, Seed: 1}, st.Profile)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int, engines)
	for _, p := range m.Part {
		nodes[p]++
	}
	for p, n := range nodes {
		if n == 0 {
			t.Errorf("engine %d of %d got no node (T_mll %v, %d candidates)", p, engines, m.Tmll, m.Candidates)
		}
	}
}
