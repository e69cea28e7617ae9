package model

import (
	"math"
	"testing"
	"testing/quick"
)

func twoNodeNet() *Network {
	n := &Network{}
	a := n.AddNode(Router, 0, 0, 0)
	b := n.AddNode(Router, 0, 3, 4)
	n.AddLink(a, b, 1000, Bps1G)
	n.ASes = []AS{{ID: 0, Routers: []NodeID{a, b}}}
	return n
}

func TestAddNodeAndLink(t *testing.T) {
	n := twoNodeNet()
	if len(n.Nodes) != 2 || len(n.Links) != 1 {
		t.Fatalf("got %d nodes %d links", len(n.Nodes), len(n.Links))
	}
	if n.NumRouters() != 2 || n.NumHosts() != 0 {
		t.Fatalf("router/host counts wrong")
	}
	h := n.AddNode(Host, 0, 1, 1)
	if n.Nodes[h].Kind != Host || n.NumHosts() != 1 {
		t.Fatal("host not recorded")
	}
}

func TestSelfLinkPanics(t *testing.T) {
	n := twoNodeNet()
	defer func() {
		if recover() == nil {
			t.Fatal("self link accepted")
		}
	}()
	n.AddLink(0, 0, 1, 1)
}

func TestLinkOther(t *testing.T) {
	n := twoNodeNet()
	l := &n.Links[0]
	if l.Other(0) != 1 || l.Other(1) != 0 {
		t.Fatal("Other wrong")
	}
}

func TestIncidentAndNeighbors(t *testing.T) {
	n := twoNodeNet()
	c := n.AddNode(Router, 0, 9, 9)
	n.ASes[0].Routers = append(n.ASes[0].Routers, c)
	n.AddLink(0, c, 500, Bps1G)
	if got := len(n.Incident(0)); got != 2 {
		t.Fatalf("Incident(0) = %d links, want 2", got)
	}
	nbrs := n.Neighbors(0)
	if len(nbrs) != 2 {
		t.Fatalf("Neighbors(0) = %v", nbrs)
	}
	seen := map[NodeID]bool{}
	for _, v := range nbrs {
		seen[v] = true
	}
	if !seen[1] || !seen[c] {
		t.Fatalf("Neighbors(0) = %v, want {1, %d}", nbrs, c)
	}
}

func TestIncidentCacheInvalidation(t *testing.T) {
	n := twoNodeNet()
	_ = n.Incident(0) // build cache
	c := n.AddNode(Router, 0, 1, 2)
	n.AddLink(0, c, 100, Bps1G)
	if len(n.Incident(0)) != 2 {
		t.Fatal("Incident cache not invalidated by AddLink")
	}
}

func TestValidateGood(t *testing.T) {
	n := twoNodeNet()
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateBadLatency(t *testing.T) {
	n := twoNodeNet()
	n.Links[0].Latency = 0
	if n.Validate() == nil {
		t.Fatal("zero latency accepted")
	}
}

func TestValidateBadRouterList(t *testing.T) {
	n := twoNodeNet()
	h := n.AddNode(Host, 0, 1, 1)
	n.ASes[0].Routers = append(n.ASes[0].Routers, h)
	if n.Validate() == nil {
		t.Fatal("host in router list accepted")
	}
}

func TestValidateAsymmetricRelationship(t *testing.T) {
	n := &Network{}
	r0 := n.AddNode(Router, 0, 0, 0)
	r1 := n.AddNode(Router, 1, 10, 10)
	lid := n.AddLink(r0, r1, 1000, Bps1G)
	n.ASes = []AS{
		{ID: 0, Routers: []NodeID{r0}, Neighbors: []ASNeighbor{{AS: 1, Rel: RelCustomer, LocalBorder: r0, RemoteBorder: r1, Link: lid}}},
		{ID: 1, Routers: []NodeID{r1}, Neighbors: []ASNeighbor{{AS: 0, Rel: RelPeer, LocalBorder: r1, RemoteBorder: r0, Link: lid}}},
	}
	if n.Validate() == nil {
		t.Fatal("customer/peer mismatch accepted")
	}
	// Fix it: customer's reverse must be provider.
	n.ASes[1].Neighbors[0].Rel = RelProvider
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate after fix: %v", err)
	}
}

func TestRelationshipAccessors(t *testing.T) {
	as := AS{ID: 0, Neighbors: []ASNeighbor{
		{AS: 1, Rel: RelProvider},
		{AS: 2, Rel: RelCustomer},
		{AS: 3, Rel: RelCustomer},
		{AS: 4, Rel: RelPeer},
	}}
	if nb, ok := as.NeighborTo(3); !ok || nb.Rel != RelCustomer {
		t.Errorf("NeighborTo(3) = %v, %v", nb, ok)
	}
	if _, ok := as.NeighborTo(9); ok {
		t.Error("NeighborTo(9) found phantom neighbor")
	}
}

func TestDistance(t *testing.T) {
	n := twoNodeNet()
	if d := n.Distance(0, 1); math.Abs(d-5) > 1e-9 {
		t.Errorf("Distance = %v, want 5 (3-4-5 triangle)", d)
	}
}

func TestLatencyForDistance(t *testing.T) {
	// 1000 miles ≈ 8.05 ms.
	lat := LatencyForDistance(1000)
	if lat < 8_000_000 || lat > 8_100_000 {
		t.Errorf("1000 mi → %d ns, want ≈8.05 ms", lat)
	}
	// Floor applies to tiny distances.
	if LatencyForDistance(0.1) != 10_000 {
		t.Errorf("floor not applied: %d", LatencyForDistance(0.1))
	}
	// Coast-to-coast on the paper's plane is tens of ms.
	cc := LatencyForDistance(PlaneMiles)
	if cc < 35_000_000 || cc > 45_000_000 {
		t.Errorf("5000 mi → %v ms, want ≈40 ms", float64(cc)/1e6)
	}
}

func TestStringers(t *testing.T) {
	if Router.String() != "router" || Host.String() != "host" {
		t.Error("NodeKind strings")
	}
	if ASStub.String() != "stub" || ASRegional.String() != "regional" || ASCore.String() != "core" {
		t.Error("ASClass strings")
	}
	if RelProvider.String() != "provider" || RelCustomer.String() != "customer" || RelPeer.String() != "peer" {
		t.Error("Relationship strings")
	}
	if ASClass(9).String() == "" || Relationship(9).String() == "" {
		t.Error("unknown enum strings empty")
	}
}

// Property: latency is monotone in distance and never below the floor.
func TestQuickLatencyMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if math.IsInf(a, 0) || math.IsNaN(a) || math.IsInf(b, 0) || math.IsNaN(b) {
			return true
		}
		a = math.Mod(a, PlaneMiles)
		b = math.Mod(b, PlaneMiles)
		la, lb := LatencyForDistance(a), LatencyForDistance(b)
		if la < 10_000 || lb < 10_000 {
			return false
		}
		if a < b {
			return la <= lb
		}
		return lb <= la
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
