package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"massf/internal/cluster"
	"massf/internal/des"
	"massf/internal/mabrite"
	"massf/internal/model"
	"massf/internal/profile"
	"massf/internal/topology"
)

func flatNet(t *testing.T, routers int, seed int64) *model.Network {
	t.Helper()
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: routers, Hosts: routers / 5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// fakeProfile makes a synthetic profile concentrating load on a subset of
// nodes, standing in for a measured profiling run.
func fakeProfile(net *model.Network, hotEvery int) *profile.Profile {
	p := profile.New(len(net.Nodes), len(net.Links))
	for i := range p.NodeEvents {
		p.NodeEvents[i] = 10
		if i%hotEvery == 0 {
			p.NodeEvents[i] = 1000
		}
	}
	for i := range p.LinkBits {
		p.LinkBits[i] = uint64(1000 * (i%7 + 1))
	}
	return p
}

func cfg(engines int) Config {
	return Config{Engines: engines, Sync: cluster.DefaultTeraGrid(), Seed: 1}
}

func TestApproachStrings(t *testing.T) {
	for a := RANDOM; a <= HPROF; a++ {
		if a.String() == "" {
			t.Errorf("approach %d has empty name", a)
		}
	}
	if !HTOP.Hierarchical() || !HPROF.Hierarchical() || TOP.Hierarchical() {
		t.Error("Hierarchical flags wrong")
	}
	if !PROF.ProfileBased() || !HPROF.ProfileBased() || TOP.ProfileBased() {
		t.Error("ProfileBased flags wrong")
	}
}

func TestMapValidation(t *testing.T) {
	net := flatNet(t, 50, 1)
	if _, err := Map(net, TOP, Config{Engines: 0}, nil); err == nil {
		t.Error("0 engines accepted")
	}
	if _, err := Map(net, PROF, cfg(4), nil); err == nil {
		t.Error("PROF without profile accepted")
	}
	bad := profile.New(3, 3)
	if _, err := Map(net, HPROF, cfg(4), bad); err == nil {
		t.Error("mismatched profile accepted")
	}
}

func TestMapSingleEngine(t *testing.T) {
	net := flatNet(t, 50, 2)
	m, err := Map(net, HPROF, cfg(1), fakeProfile(net, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Part {
		if p != 0 {
			t.Fatal("single engine mapping not all-zero")
		}
	}
	if m.MLL != MaxMLL {
		t.Errorf("single-engine MLL = %v, want MaxMLL", m.MLL)
	}
}

func TestMapAllApproachesProduceValidPartitions(t *testing.T) {
	net := flatNet(t, 400, 3)
	prof := fakeProfile(net, 7)
	for _, a := range []Approach{RANDOM, TOP, TOP2, PROF, PROF2, HTOP, HPROF} {
		m, err := Map(net, a, cfg(8), prof)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if len(m.Part) != len(net.Nodes) {
			t.Fatalf("%v: partition length", a)
		}
		used := map[int32]bool{}
		for _, p := range m.Part {
			if p < 0 || p >= 8 {
				t.Fatalf("%v: part %d out of range", a, p)
			}
			used[p] = true
		}
		if len(used) < 2 {
			t.Errorf("%v: only %d engines used", a, len(used))
		}
		if m.MLL <= 0 {
			t.Errorf("%v: MLL = %v", a, m.MLL)
		}
		if len(m.EstLoad) != 8 {
			t.Errorf("%v: EstLoad length %d", a, len(m.EstLoad))
		}
	}
}

func TestHierarchicalMLLExceedsSyncCost(t *testing.T) {
	net := flatNet(t, 800, 4)
	sync := cluster.DefaultTeraGrid()
	c := Config{Engines: 16, Sync: sync, Seed: 2}
	for _, a := range []Approach{HTOP, HPROF} {
		m, err := Map(net, a, c, fakeProfile(net, 9))
		if err != nil {
			t.Fatal(err)
		}
		syncCost := des.Time(sync.SyncCost(16))
		if m.MLL <= syncCost {
			t.Errorf("%v: achieved MLL %v ≤ sync cost %v — hierarchy failed its purpose", a, m.MLL, syncCost)
		}
		if m.Candidates < 2 {
			t.Errorf("%v: only %d thresholds swept", a, m.Candidates)
		}
		if m.Tmll <= syncCost {
			t.Errorf("%v: chosen Tmll %v ≤ sync cost", a, m.Tmll)
		}
		if m.E <= 0 || m.Es <= 0 || m.Ec <= 0 {
			t.Errorf("%v: degenerate evaluation E=%v Es=%v Ec=%v", a, m.E, m.Es, m.Ec)
		}
	}
}

func TestHierarchicalBeatsFlatOnMLL(t *testing.T) {
	// The paper's central observation: on large networks, flat TOP/PROF
	// achieve a much smaller MLL than the hierarchical variants.
	net := flatNet(t, 1500, 5)
	prof := fakeProfile(net, 6)
	c := Config{Engines: 24, Sync: cluster.DefaultTeraGrid(), Seed: 3}
	flat, err := Map(net, PROF, c, prof)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := Map(net, HPROF, c, prof)
	if err != nil {
		t.Fatal(err)
	}
	if hier.MLL <= flat.MLL {
		t.Errorf("HPROF MLL %v not above PROF MLL %v", hier.MLL, flat.MLL)
	}
	if hier.MLL < 2*flat.MLL {
		t.Logf("warning: HPROF MLL %v < 2× PROF MLL %v (weak separation)", hier.MLL, flat.MLL)
	}
}

func TestTunedConversionRaisesMLL(t *testing.T) {
	// TOP2's steeper weights should achieve MLL at least as large as TOP
	// on a large network (the paper's Figure 7: ~0.6ms vs ~0.1ms).
	net := flatNet(t, 1500, 6)
	c := Config{Engines: 24, Sync: cluster.DefaultTeraGrid(), Seed: 4}
	top, err := Map(net, TOP, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	top2, err := Map(net, TOP2, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	// At reduced scale both conversions end in the same forced-split
	// regime, so allow noise — but TOP2 must never be clearly worse.
	if float64(top2.MLL) < 0.75*float64(top.MLL) {
		t.Errorf("TOP2 MLL %v clearly below TOP MLL %v", top2.MLL, top.MLL)
	}
}

func TestProfileImprovesEstimatedBalance(t *testing.T) {
	// With a strongly skewed profile, HPROF's Ec (computed against the
	// true profiled load) should beat HTOP's partition evaluated under
	// the same profiled weights.
	net := flatNet(t, 600, 7)
	prof := fakeProfile(net, 4)
	c := Config{Engines: 12, Sync: cluster.DefaultTeraGrid(), Seed: 5}
	htop, err := Map(net, HTOP, c, prof)
	if err != nil {
		t.Fatal(err)
	}
	hprof, err := Map(net, HPROF, c, prof)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate both partitions under the profiled node weights.
	g := BuildGraph(net, HPROF, prof, cfg(12))
	ecOf := func(part []int32) float64 {
		stats := g.EvaluatePartition(part, 12)
		return ecFactor(stats.PartWeight)
	}
	if ecOf(hprof.Part) < ecOf(htop.Part) {
		t.Errorf("HPROF profiled-load balance %.3f worse than HTOP %.3f",
			ecOf(hprof.Part), ecOf(htop.Part))
	}
}

func TestMapDeterministic(t *testing.T) {
	net := flatNet(t, 300, 8)
	prof := fakeProfile(net, 5)
	a, err := Map(net, HPROF, cfg(8), prof)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Map(net, HPROF, cfg(8), prof)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Part {
		if a.Part[i] != b.Part[i] {
			t.Fatal("same seed produced different mappings")
		}
	}
}

// TestMapDeterministicAnyGOMAXPROCS: the T_mll sweep's candidates run on
// up to GOMAXPROCS goroutines, and every approach's Mapping — partition,
// scores, chosen threshold and every Sweep entry — is the same whether
// one, two or eight of them do the work.
func TestMapDeterministicAnyGOMAXPROCS(t *testing.T) {
	multi, err := mabrite.Generate(mabrite.Options{ASes: 6, RoutersPerAS: 30, Hosts: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	nets := []struct {
		name string
		net  *model.Network
	}{{"flat", flatNet(t, 300, 4)}, {"multias", multi}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range nets {
		prof := fakeProfile(n.net, 5)
		var appHosts []model.NodeID
		for i := range n.net.Nodes {
			if n.net.Nodes[i].Kind == model.Host && len(appHosts) < 3 {
				appHosts = append(appHosts, model.NodeID(i))
			}
		}
		for _, k := range []int{2, 16} {
			for a := RANDOM; a <= HPROF; a++ {
				c := Config{Engines: k, Sync: cluster.DefaultTeraGrid(), Seed: 3, KeepSweep: true, AppHosts: appHosts}
				var want *Mapping
				for _, procs := range []int{1, 2, 8} {
					runtime.GOMAXPROCS(procs)
					m, err := Map(n.net, a, c, prof)
					if err != nil {
						t.Fatalf("%s k=%d %v GOMAXPROCS=%d: %v", n.name, k, a, procs, err)
					}
					if want == nil {
						want = m
					} else if !reflect.DeepEqual(m, want) {
						t.Fatalf("%s k=%d %v: the mapping at GOMAXPROCS=%d differs from GOMAXPROCS=1", n.name, k, a, procs)
					}
				}
			}
		}
	}
}

func TestEsEcFactors(t *testing.T) {
	if es := esFactor(2*des.Millisecond, des.Millisecond); es != 0.5 {
		t.Errorf("Es = %v, want 0.5", es)
	}
	if es := esFactor(des.Millisecond, 2*des.Millisecond); es != 0 {
		t.Errorf("Es with sync > MLL = %v, want 0", es)
	}
	if ec := ecFactor([]int64{100, 100}); ec != 1 {
		t.Errorf("Ec uniform = %v, want 1", ec)
	}
	if ec := ecFactor([]int64{200, 0}); ec != 0.5 {
		t.Errorf("Ec skewed = %v, want 0.5", ec)
	}
	if ec := ecFactor([]int64{0, 0}); ec != 1 {
		t.Errorf("Ec zero = %v, want 1", ec)
	}
}

func TestBuildGraphShapes(t *testing.T) {
	net := flatNet(t, 100, 9)
	prof := fakeProfile(net, 3)
	gTop := BuildGraph(net, TOP, nil, cfg(4))
	gProf := BuildGraph(net, PROF, prof, cfg(4))
	if err := gTop.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := gProf.Validate(); err != nil {
		t.Fatal(err)
	}
	if gTop.NumEdges() != len(net.Links) || gProf.NumEdges() != len(net.Links) {
		t.Error("edge counts do not match links")
	}
	// Profiled hot nodes must have larger weights than cold ones.
	if gProf.NodeWeight[0] <= gProf.NodeWeight[1] {
		t.Error("profiled hot node not heavier than cold node")
	}
	// TOP node weight reflects bandwidth, so a router with more links
	// weighs more than a 1-link host.
	host := -1
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			host = i
			break
		}
	}
	maxW := int64(0)
	for _, w := range gTop.NodeWeight {
		if w > maxW {
			maxW = w
		}
	}
	if host >= 0 && gTop.NodeWeight[host] >= maxW {
		t.Error("host outweighs the best-connected router under TOP")
	}
}

func TestLatencyWeights(t *testing.T) {
	if latencyWeight(10_000) != 100_000 {
		t.Errorf("latencyWeight(10µs) = %d", latencyWeight(10_000))
	}
	if latencyWeight(int64(des.Second)) != 1 {
		t.Error("latencyWeight floor broken")
	}
	// Tuned conversion is much steeper: ratio between 10µs and 1ms links
	// is 10^4 rather than 10^2.
	r1 := latencyWeight(10_000) / latencyWeight(1_000_000)
	r2 := latencyWeight2(10_000) / latencyWeight2(1_000_000)
	if r2 <= r1*10 {
		t.Errorf("tuned conversion not steeper: ratios %d vs %d", r1, r2)
	}
}

// Property: every Map result respects the conservative invariant — no cut
// link has latency below the reported MLL.
func TestQuickMLLInvariant(t *testing.T) {
	f := func(seed int64, aRaw uint8) bool {
		a := Approach(int(aRaw) % int(HPROF+1))
		net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 120, Hosts: 20, Seed: seed})
		if err != nil {
			return false
		}
		c := Config{Engines: 6, Sync: cluster.DefaultTeraGrid(), Seed: seed}
		var p *profile.Profile
		if a.ProfileBased() {
			p = fakeProfile(net, 5)
		}
		if a == PLACE {
			c.AppHosts = net.ASes[0].Hosts[:7]
		}
		m, err := Map(net, a, c, p)
		if err != nil {
			return false
		}
		for i := range net.Links {
			l := &net.Links[i]
			if m.Part[l.A] != m.Part[l.B] && des.Time(l.Latency) < m.MLL {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMapAllocBudget is a count-based gate on the T_mll sweep, immune to
// host load the way TestKernelSteadyStateZeroAllocs is: the bytes one
// core.Map(HPROF, k=16) allocates on a fixed 20-AS net. Before the sweep
// stopped re-partitioning unchanged contractions and rebuilding its
// union-find per threshold, that call allocated 16 472 304 bytes; the gate
// is half of it.
func TestMapAllocBudget(t *testing.T) {
	const parentBytes = 16_472_304
	net, err := mabrite.Generate(mabrite.Options{ASes: 20, RoutersPerAS: 60, Hosts: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	prof := fakeProfile(net, 5)
	c := Config{Engines: 16, Sync: cluster.DefaultTeraGrid(), Seed: 1}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	m, err := Map(net, HPROF, c, prof)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	got := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("core.Map(HPROF, k=16) allocated %d bytes over %d candidates", got, m.Candidates)
	if got > parentBytes/2 {
		t.Errorf("core.Map(HPROF, k=16) allocated %d bytes, budget %d", got, parentBytes/2)
	}
}

func BenchmarkHPROFSweep2000(b *testing.B) {
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 2000, Hosts: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p := fakeProfile(net, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Map(net, HPROF, Config{Engines: 16, Sync: cluster.DefaultTeraGrid(), Seed: int64(i)}, p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPlaceBoostsAppNeighborhood(t *testing.T) {
	net := flatNet(t, 200, 10)
	var appHosts []model.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			appHosts = append(appHosts, model.NodeID(i))
			if len(appHosts) == 3 {
				break
			}
		}
	}
	c := cfg(4)
	c.AppHosts = appHosts
	gPlace := BuildGraph(net, PLACE, nil, c)
	gTop := BuildGraph(net, TOP, nil, c)
	for _, h := range appHosts {
		if gPlace.NodeWeight[h] <= gTop.NodeWeight[h] {
			t.Errorf("PLACE did not boost app host %d (%d vs %d)", h, gPlace.NodeWeight[h], gTop.NodeWeight[h])
		}
		for _, nb := range net.Neighbors(h) {
			if gPlace.NodeWeight[nb] <= gTop.NodeWeight[nb] {
				t.Errorf("PLACE did not boost attachment router %d", nb)
			}
		}
	}
	// Non-app nodes keep TOP weights.
	boosted := map[model.NodeID]bool{}
	for _, h := range appHosts {
		boosted[h] = true
		for _, nb := range net.Neighbors(h) {
			boosted[nb] = true
		}
	}
	for i := range net.Nodes {
		if !boosted[model.NodeID(i)] && gPlace.NodeWeight[i] != gTop.NodeWeight[i] {
			t.Fatalf("PLACE changed non-app node %d weight", i)
		}
	}
}

func TestPlaceSeparatesAppHosts(t *testing.T) {
	// With placement weights, the partitioner should spread app
	// hosts across engines rather than stacking them.
	net := flatNet(t, 400, 12)
	var appHosts []model.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			appHosts = append(appHosts, model.NodeID(i))
			if len(appHosts) == 4 {
				break
			}
		}
	}
	c := cfg(4)
	c.AppHosts = appHosts
	m, err := Map(net, PLACE, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	engines := map[int32]int{}
	for _, h := range appHosts {
		engines[m.Part[h]]++
	}
	if len(engines) < 2 {
		t.Errorf("all app hosts stacked on %d engine(s)", len(engines))
	}
}

// PLACE without application hosts has nothing to boost and would map as
// TOP; Map refuses it the way it refuses HPROF without a profile.
func TestPlaceRequiresAppHosts(t *testing.T) {
	net := flatNet(t, 100, 2)
	if _, err := Map(net, PLACE, cfg(4), nil); err == nil || !strings.Contains(err.Error(), "application hosts") {
		t.Fatalf("PLACE without app hosts: err = %v", err)
	}
	if _, err := Map(net, PLACE, cfg(1), nil); err != nil {
		t.Fatalf("PLACE on one engine cuts nothing and needs no hosts: %v", err)
	}
}
