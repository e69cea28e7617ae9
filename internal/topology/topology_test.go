package topology

import (
	"testing"
	"testing/quick"

	"massf/internal/model"
)

func gen(t *testing.T, opts FlatOptions) *model.Network {
	t.Helper()
	net, err := GenerateFlat(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatalf("generated network invalid: %v", err)
	}
	return net
}

func TestGenerateFlatCounts(t *testing.T) {
	net := gen(t, FlatOptions{Routers: 500, Hosts: 120, Seed: 1})
	if got := net.NumRouters(); got != 500 {
		t.Errorf("routers = %d, want 500", got)
	}
	if got := net.NumHosts(); got != 120 {
		t.Errorf("hosts = %d, want 120", got)
	}
	if len(net.ASes) != 1 {
		t.Fatalf("ASes = %d, want 1", len(net.ASes))
	}
	if len(net.ASes[0].Routers) != 500 || len(net.ASes[0].Hosts) != 120 {
		t.Error("AS membership lists wrong")
	}
}

func TestGenerateFlatRejectsTiny(t *testing.T) {
	if _, err := GenerateFlat(FlatOptions{Routers: 1}); err == nil {
		t.Fatal("1-router network accepted")
	}
}

func TestGenerateFlatConnected(t *testing.T) {
	net := gen(t, FlatOptions{Routers: 300, Hosts: 50, Seed: 2})
	// BFS over all nodes (hosts hang off routers).
	seen := make([]bool, len(net.Nodes))
	stack := []model.NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range net.Neighbors(u) {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	if count != len(net.Nodes) {
		t.Fatalf("connected component has %d of %d nodes", count, len(net.Nodes))
	}
}

func TestGenerateFlatDeterministic(t *testing.T) {
	a := gen(t, FlatOptions{Routers: 200, Hosts: 20, Seed: 7})
	b := gen(t, FlatOptions{Routers: 200, Hosts: 20, Seed: 7})
	if len(a.Links) != len(b.Links) {
		t.Fatal("same seed, different link counts")
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatalf("same seed, different link %d", i)
		}
	}
}

func TestGenerateFlatPowerLawish(t *testing.T) {
	net := gen(t, FlatOptions{Routers: 2000, Hosts: 0, Seed: 3})
	hist := degreeHistogram(net)
	// Power-law signature: many low-degree nodes, a thin high-degree tail.
	low, high := 0, 0
	maxDeg := 0
	for d, c := range hist {
		if d <= 3 {
			low += c
		}
		if d >= 20 {
			high += c
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	if low < 1200 {
		t.Errorf("only %d routers with degree ≤ 3; expected a heavy low-degree mass", low)
	}
	if maxDeg < 20 {
		t.Errorf("max degree %d; expected a hub tail ≥ 20", maxDeg)
	}
	if high > 100 {
		t.Errorf("%d routers with degree ≥ 20; tail should be thin", high)
	}
}

func TestGenerateFlatLatencyStructure(t *testing.T) {
	// The generator must produce both sub-millisecond (intra-city) and
	// multi-millisecond (backbone) links — the spread that makes MLL
	// control meaningful.
	net := gen(t, FlatOptions{Routers: 2000, Hosts: 0, Seed: 4})
	subMS, multiMS := 0, 0
	for i := range net.Links {
		switch lat := net.Links[i].Latency; {
		case lat < 1_000_000:
			subMS++
		case lat > 4_000_000:
			multiMS++
		}
	}
	if subMS < 100 {
		t.Errorf("only %d sub-ms links; city clustering broken", subMS)
	}
	if multiMS < 100 {
		t.Errorf("only %d >4ms links; backbone spans missing", multiMS)
	}
}

func TestGenerateFlatHostLinks(t *testing.T) {
	net := gen(t, FlatOptions{Routers: 100, Hosts: 40, Seed: 5})
	for i := range net.Links {
		l := &net.Links[i]
		aHost := net.Nodes[l.A].Kind == model.Host
		bHost := net.Nodes[l.B].Kind == model.Host
		if aHost && bHost {
			t.Fatal("host-to-host link generated")
		}
		if aHost || bHost {
			if l.Bandwidth != model.Bps100M {
				t.Errorf("access link bandwidth %d, want 100M", l.Bandwidth)
			}
			if deg := len(net.Incident(l.A)); aHost && deg != 1 {
				t.Errorf("host %d has degree %d, want 1", l.A, deg)
			}
		}
	}
}

func TestBackboneUpgrade(t *testing.T) {
	net := gen(t, FlatOptions{Routers: 2000, Hosts: 0, Seed: 6})
	upgraded := 0
	for i := range net.Links {
		if net.Links[i].Bandwidth == model.Bps10G {
			upgraded++
		}
	}
	if upgraded == 0 {
		t.Error("no backbone links upgraded to 10G")
	}
	if upgraded > len(net.Links)/2 {
		t.Errorf("%d of %d links upgraded; backbone should be a minority", upgraded, len(net.Links))
	}
}

func TestPickCityCoversAll(t *testing.T) {
	// Over many draws every city must be reachable (the +1 smoothing).
	hist := degreeHistogram(&model.Network{}) // exercise empty-net path
	if len(hist) != 0 {
		t.Error("empty network histogram not empty")
	}
}

func TestDegreePercentile(t *testing.T) {
	deg := []int{1, 1, 1, 1, 1, 1, 1, 1, 5, 9}
	if got := degreePercentile(deg, 0.9); got != 9 {
		t.Errorf("p90 = %d, want 9", got)
	}
	if got := degreePercentile(deg, 0.0); got != 1 {
		t.Errorf("p0 = %d, want 1", got)
	}
	if got := degreePercentile(nil, 0.5); got != 0 {
		t.Errorf("empty = %d, want 0", got)
	}
}

// Property: all generated latencies are positive and bounded by the plane
// diagonal; all bandwidths are one of the defined tiers.
func TestQuickLinkSanity(t *testing.T) {
	diag := model.LatencyForDistance(model.PlaneMiles * 1.4143)
	f := func(seed int64) bool {
		net, err := GenerateFlat(FlatOptions{Routers: 150, Hosts: 30, Seed: seed})
		if err != nil {
			return false
		}
		for i := range net.Links {
			l := &net.Links[i]
			if l.Latency <= 0 || l.Latency > diag {
				return false
			}
			switch l.Bandwidth {
			case model.Bps100M, model.Bps1G, model.Bps10G:
			default:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGenerateFlat20k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateFlat(FlatOptions{Routers: 20000, Hosts: 10000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// degreeHistogram returns counts of router degrees, to check the
// power-law shape.
func degreeHistogram(net *model.Network) map[int]int {
	deg := map[model.NodeID]int{}
	for i := range net.Links {
		l := &net.Links[i]
		if net.Nodes[l.A].Kind == model.Router && net.Nodes[l.B].Kind == model.Router {
			deg[l.A]++
			deg[l.B]++
		}
	}
	hist := map[int]int{}
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Router {
			hist[deg[model.NodeID(i)]]++
		}
	}
	return hist
}
