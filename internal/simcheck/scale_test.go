package simcheck

import (
	"os"
	"testing"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/dist"
	"massf/internal/experiments"
)

// TestScale100kDistributedRun demonstrates what slice-local worker builds
// make possible: a 100,000-router multi-AS scenario distributed over a k=4
// worker fleet completes. No sequential reference runs here — at this
// scale that is exactly the build slicing exists to avoid — so the
// assertion is completion plus sane merged accounting, not a byte-for-byte
// diff (that equivalence is pinned at checkable scale by Plan.Distributed
// and `simcheck -dist`).
//
// Heavy (minutes, several GB): gated behind MASSF_SCALE=1.
func TestScale100kDistributedRun(t *testing.T) {
	if os.Getenv("MASSF_SCALE") != "1" {
		t.Skip("100k-router scale run only runs with MASSF_SCALE=1")
	}
	sc := Scenario{
		Seed: 11, MultiAS: true, ASes: 50, RoutersPerAS: 2000, Hosts: 2000,
		TCPFlows: 64, UDPSends: 64,
		Horizon:  200 * des.Millisecond,
		Approach: core.TOP2, Ks: []int{4},
	}
	cacheDir := t.TempDir()
	es := sc.launch(4)
	net, _, err := es.Network(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("topology: %d nodes (%d routers), %d links", len(net.Nodes), net.NumRouters(), len(net.Links))
	m, err := mapOnly(net, sc.Approach, 4, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	// A plan with no reference: only the mapping the jobs are cut from.
	plan := &Plan{Scenario: sc, st: &experiments.Setup{Net: net},
		ks: map[int]*kPlan{4: {m: m}}}
	rc, err := plan.jobs(4, 4, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	_, mem, merged, err := serveFleet(nil, rc, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range mem {
		t.Logf("worker %d (%s): %d owned nodes, build %.1fs, route tables %.1f MiB, heap %.1f MiB, peak RSS %.1f MiB",
			i, p.Name, p.SliceNodes, float64(p.BuildNS)/1e9,
			float64(p.RouteBytes)/(1<<20), float64(p.HeapInuse)/(1<<20), float64(p.PeakRSS)/(1<<20))
		if p.SliceNodes <= 0 || p.SliceNodes >= len(net.Nodes) {
			t.Errorf("worker %d materialized %d nodes — not a proper slice of %d", i, p.SliceNodes, len(net.Nodes))
		}
	}
	if merged.TotalEvents == 0 {
		t.Error("merged observation has zero events — the fleet simulated nothing")
	}
	if merged.FlowsStarted == 0 {
		t.Error("no flows started across the fleet")
	}
}
