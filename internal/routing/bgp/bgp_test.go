package bgp

import (
	"testing"
	"testing/quick"

	"massf/internal/mabrite"
	"massf/internal/model"
)

// asNet builds a network with only AS-level structure (one router per AS)
// from an adjacency + relationship list. rels[i] is the relationship from
// edges[i][0]'s point of view.
func asNet(t *testing.T, n int, edges [][2]int32, rels []model.Relationship) *model.Network {
	t.Helper()
	net := &model.Network{}
	net.ASes = make([]model.AS, n)
	for i := 0; i < n; i++ {
		r := net.AddNode(model.Router, int32(i), float64(i*100), 0)
		net.ASes[i] = model.AS{ID: int32(i), Routers: []model.NodeID{r}, DefaultBorder: -1}
	}
	inv := map[model.Relationship]model.Relationship{
		model.RelProvider: model.RelCustomer,
		model.RelCustomer: model.RelProvider,
		model.RelPeer:     model.RelPeer,
	}
	for i, e := range edges {
		a, b := e[0], e[1]
		ra, rb := net.ASes[a].Routers[0], net.ASes[b].Routers[0]
		lid := net.AddLink(ra, rb, 1_000_000, model.Bps1G)
		net.ASes[a].Neighbors = append(net.ASes[a].Neighbors, model.ASNeighbor{AS: b, Rel: rels[i], LocalBorder: ra, RemoteBorder: rb, Link: lid})
		net.ASes[b].Neighbors = append(net.ASes[b].Neighbors, model.ASNeighbor{AS: a, Rel: inv[rels[i]], LocalBorder: rb, RemoteBorder: ra, Link: lid})
	}
	if err := net.Validate(); err != nil {
		t.Fatalf("test net invalid: %v", err)
	}
	return net
}

func TestTwoASesReachEachOther(t *testing.T) {
	// 0 is 1's provider.
	net := asNet(t, 2, [][2]int32{{0, 1}}, []model.Relationship{model.RelCustomer})
	rib := converge(net)
	if nh, ok := rib.NextHopAS(0, 1); !ok || nh != 1 {
		t.Errorf("0→1 next hop = %d ok=%v", nh, ok)
	}
	if nh, ok := rib.NextHopAS(1, 0); !ok || nh != 0 {
		t.Errorf("1→0 next hop = %d ok=%v", nh, ok)
	}
}

func TestNoValleyThroughCustomer(t *testing.T) {
	// Classic valley: provider0 — customer1 — provider2 (1 is a customer
	// of both). 0 and 2 are NOT otherwise connected: policy must make
	// them mutually unreachable (1 must not transit its providers).
	net := asNet(t, 3,
		[][2]int32{{0, 1}, {2, 1}},
		[]model.Relationship{model.RelCustomer, model.RelCustomer})
	rib := converge(net)
	if _, ok := rib.NextHopAS(0, 2); ok {
		t.Error("0 reaches 2 through a customer valley")
	}
	if _, ok := rib.NextHopAS(2, 0); ok {
		t.Error("2 reaches 0 through a customer valley")
	}
	// But both providers reach the shared customer.
	if _, ok := rib.NextHopAS(0, 1); !ok {
		t.Error("0 cannot reach its customer 1")
	}
	_, unreachable := rib.Reachability()
	if unreachable != 2 {
		t.Errorf("unreachable pairs = %d, want 2 (the valley pair, both directions)", unreachable)
	}
}

func TestNoTransitBetweenPeers(t *testing.T) {
	// 1—0 peer, 0—2 peer; chain of peers does not provide transit:
	// 1 must not reach 2 via 0.
	net := asNet(t, 3,
		[][2]int32{{0, 1}, {0, 2}},
		[]model.Relationship{model.RelPeer, model.RelPeer})
	rib := converge(net)
	if _, ok := rib.NextHopAS(1, 2); ok {
		t.Error("peer route leaked to another peer (transit over peering)")
	}
	if _, ok := rib.NextHopAS(1, 0); !ok {
		t.Error("peer cannot reach direct peer")
	}
}

func TestCustomerRoutePreferredOverPeerAndProvider(t *testing.T) {
	// AS0 can reach AS3 via customer 1, peer 2 — or via longer customer
	// chain. Destination 3 is customer of 1, 2. AS0: 1 is customer, 2 is
	// peer. Both announce 3; AS0 must pick the customer route via 1.
	net := asNet(t, 4,
		[][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
		[]model.Relationship{model.RelCustomer, model.RelPeer, model.RelCustomer, model.RelCustomer})
	rib := converge(net)
	nh, ok := rib.NextHopAS(0, 3)
	if !ok {
		t.Fatal("0 cannot reach 3")
	}
	if nh != 1 {
		t.Errorf("0→3 next hop = %d, want 1 (customer-learned route preferred)", nh)
	}
}

func TestShorterPathWinsAtEqualPref(t *testing.T) {
	// Two provider routes to 3: via 1 (2 AS hops) or via 2 then 4 (3 AS
	// hops). Equal local pref → shorter AS path wins.
	net := asNet(t, 5,
		[][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 4}, {4, 3}},
		[]model.Relationship{
			model.RelProvider, // 1 is provider of 0
			model.RelProvider, // 2 is provider of 0
			model.RelProvider, // 3 is provider of 1
			model.RelProvider, // 4 is provider of 2
			model.RelProvider, // 3 is provider of 4
		})
	rib := converge(net)
	nh, ok := rib.NextHopAS(0, 3)
	if !ok {
		t.Fatal("0 cannot reach 3")
	}
	if nh != 1 {
		t.Errorf("0→3 next hop = %d, want 1 (2-hop path beats 3-hop)", nh)
	}
	if p := rib.Path(0, 3); len(p) != 2 {
		t.Errorf("path = %v, want length 2", p)
	}
}

func TestLoopRejection(t *testing.T) {
	// Triangle of providers: must converge without path loops.
	net := asNet(t, 3,
		[][2]int32{{0, 1}, {1, 2}, {2, 0}},
		[]model.Relationship{model.RelPeer, model.RelPeer, model.RelPeer})
	rib := converge(net)
	for a := int32(0); a < 3; a++ {
		for d := int32(0); d < 3; d++ {
			p := rib.Path(a, d)
			seen := map[int32]bool{a: true}
			for _, as := range p {
				if seen[as] {
					t.Fatalf("loop in path %d→%d: %v", a, d, p)
				}
				seen[as] = true
			}
		}
	}
}

func TestSelfRoute(t *testing.T) {
	net := asNet(t, 2, [][2]int32{{0, 1}}, []model.Relationship{model.RelPeer})
	rib := converge(net)
	r := rib.best[0][0]
	if r == nil || len(r.Path) != 0 || r.LocalPref != PrefLocal {
		t.Errorf("self route wrong: %+v", r)
	}
}

func TestValleyFreeChecker(t *testing.T) {
	net := asNet(t, 4,
		[][2]int32{{0, 1}, {1, 2}, {2, 3}},
		[]model.Relationship{
			model.RelProvider, // 1 provider of 0
			model.RelPeer,     // 1—2 peers
			model.RelCustomer, // 3 customer of 2
		})
	if !valleyFree(net, 0, []int32{1, 2, 3}) {
		t.Error("up-peer-down path flagged as valley")
	}
	// down then up = valley: 1 → 0 (customer step) then 0 → ? none; build
	// a direct check: path 2 → 1 → 0 is down-down: fine; path 0→1→... use
	// reversed: from 2: 2→1 (peer) then 1→0 (down): peer then down ok.
	if !valleyFree(net, 2, []int32{1, 0}) {
		t.Error("peer-down path flagged as valley")
	}
	// From 3: 3→2 (up), 2→1 (peer), 1→0 (down) = fine.
	if !valleyFree(net, 3, []int32{2, 1, 0}) {
		t.Error("up-peer-down flagged")
	}
	// Invalid: peer step after down step. From 0: 0→1 up, 1→... need
	// down-then-peer: from 3: 3→2 up, 2→3? loop. Synthetic: down (1→0)
	// then anything up: from 1: 1→0 down; then 0→1 up — but that's a
	// revisit; use a bigger net for a clean valley.
	net2 := asNet(t, 3,
		[][2]int32{{0, 1}, {2, 1}},
		[]model.Relationship{model.RelCustomer, model.RelCustomer})
	if valleyFree(net2, 0, []int32{1, 2}) {
		t.Error("customer valley not detected")
	}
}

func TestConvergedPathsAreValleyFreeOnMabrite(t *testing.T) {
	net, err := mabrite.Generate(mabrite.Options{ASes: 40, RoutersPerAS: 3, Hosts: 0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rib := converge(net)
	checked := 0
	for a := int32(0); a < 40; a++ {
		for d := int32(0); d < 40; d++ {
			if a == d {
				continue
			}
			p := rib.Path(a, d)
			if p == nil {
				continue
			}
			checked++
			if !valleyFree(net, a, p) {
				t.Fatalf("path %d→%d = %v violates valley-free", a, d, p)
			}
			if p[len(p)-1] != d {
				t.Fatalf("path %d→%d = %v does not end at destination", a, d, p)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no paths to check")
	}
}

func TestMabriteFullReachabilityViaCore(t *testing.T) {
	// Because every AS has a provider chain to the core clique, the
	// up-core-down path always exists: every pair must be reachable.
	net, err := mabrite.Generate(mabrite.Options{ASes: 30, RoutersPerAS: 3, Hosts: 0, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	rib := converge(net)
	_, unreachable := rib.Reachability()
	if unreachable != 0 {
		t.Errorf("%d unreachable pairs in a provider-covered hierarchy", unreachable)
	}
}

// Property: convergence on random mabrite networks always terminates with
// loop-free, valley-free paths.
func TestQuickConvergenceSound(t *testing.T) {
	f := func(seed int64) bool {
		net, err := mabrite.Generate(mabrite.Options{ASes: 15, RoutersPerAS: 2, Hosts: 0, Seed: seed})
		if err != nil {
			return false
		}
		rib := converge(net)
		for a := int32(0); a < 15; a++ {
			for d := int32(0); d < 15; d++ {
				p := rib.Path(a, d)
				if p == nil {
					continue
				}
				seen := map[int32]bool{a: true}
				for _, as := range p {
					if seen[as] {
						return false
					}
					seen[as] = true
				}
				if !valleyFree(net, a, p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkConverge100AS(b *testing.B) {
	net, err := mabrite.Generate(mabrite.Options{ASes: 100, RoutersPerAS: 2, Hosts: 0, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		converge(net)
	}
}

// Diamond for session-churn tests: 0 is provider of 1 and 2; 1 and 2 are
// providers of 3. 3 reaches 0 over either middle AS.
func diamondNet(t *testing.T) *model.Network {
	t.Helper()
	return asNet(t, 4,
		[][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
		[]model.Relationship{model.RelCustomer, model.RelCustomer, model.RelCustomer, model.RelCustomer})
}

func converged(t *testing.T, net *model.Network) *Simulator {
	t.Helper()
	s := NewSimulator(net)
	for i := range net.ASes {
		s.Announce(net.ASes[i].ID)
	}
	s.Run()
	return s
}

func TestSessionDownWithdrawsAndReroutes(t *testing.T) {
	s := converged(t, diamondNet(t))
	nh, ok := s.RIB().NextHopAS(3, 0)
	if !ok {
		t.Fatal("precondition: 3 cannot reach 0")
	}
	other := int32(1)
	if nh == 1 {
		other = 2
	}
	s.SessionDown(nh, 3)
	if msgs := s.Run(); msgs == 0 {
		t.Fatal("session down propagated zero updates")
	}
	got, ok := s.RIB().NextHopAS(3, 0)
	if !ok || got != other {
		t.Fatalf("3→0 next hop after downing session %d—3: got %d ok=%v, want %d", nh, got, ok, other)
	}
}

func TestSessionDownBothUplinksPartitions(t *testing.T) {
	s := converged(t, diamondNet(t))
	s.SessionDown(1, 3)
	s.SessionDown(2, 3)
	s.Run()
	if _, ok := s.RIB().NextHopAS(3, 0); ok {
		t.Fatal("3 still reaches 0 with both uplink sessions down")
	}
	if _, ok := s.RIB().NextHopAS(0, 3); ok {
		t.Fatal("0 still reaches 3 with both of 3's uplink sessions down")
	}
}

func TestSessionUpRestoresConvergedState(t *testing.T) {
	net := diamondNet(t)
	s := converged(t, net)
	before := Compare(s.RIB(), s.RIB())
	s.SessionDown(1, 3)
	s.Run()
	s.SessionUp(1, 3)
	s.Run()
	ref := converge(net)
	cmp := Compare(s.RIB(), ref)
	if cmp.SamePath != cmp.Pairs {
		t.Fatalf("down/up cycle did not restore the converged RIB: %d/%d same paths (self-compare %d/%d)",
			cmp.SamePath, cmp.Pairs, before.SamePath, before.Pairs)
	}
}

func TestCloneIsolatesSessions(t *testing.T) {
	s := converged(t, diamondNet(t))
	c := s.Clone()
	c.SessionDown(1, 3)
	c.SessionDown(2, 3)
	c.Run()
	if _, ok := c.RIB().NextHopAS(3, 0); ok {
		t.Fatal("clone still routes over its down sessions")
	}
	if _, ok := s.RIB().NextHopAS(3, 0); !ok {
		t.Fatal("downing sessions on the clone broke the original")
	}
}

// converge runs the BGP protocol over the AS graph of net until no updates
// remain and returns the converged RIB.
func converge(net *model.Network) *RIB {
	s := NewSimulator(net)
	for as := range net.ASes {
		s.Announce(int32(as))
	}
	s.Run()
	return s.rib
}

// valleyFree reports whether an AS path obeys the valley-free property
// under the relationships in net: zero or more customer→provider steps,
// at most one peer step, then zero or more provider→customer steps. The
// path is given as seen from its first element toward the destination.
func valleyFree(net *model.Network, from int32, path []int32) bool {
	const (
		up = iota
		peered
		down
	)
	phase := up
	cur := from
	for _, next := range path {
		nb, ok := net.ASes[cur].NeighborTo(next)
		if !ok {
			return false
		}
		switch nb.Rel {
		case model.RelProvider: // cur → its provider: an up step
			if phase != up {
				return false
			}
		case model.RelPeer:
			if phase != up {
				return false
			}
			phase = peered
		case model.RelCustomer: // cur → its customer: a down step
			phase = down
		}
		cur = next
	}
	return true
}
