package interdomain

import (
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"massf/internal/mabrite"
	"massf/internal/model"
	"massf/internal/topology"
)

// hostsOf lists the hosts of net.
func hostsOf(net *model.Network) []model.NodeID {
	var hosts []model.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			hosts = append(hosts, model.NodeID(i))
		}
	}
	return hosts
}

// bordersOf lists the border routers of net: the routers that terminate an
// inter-AS link.
func bordersOf(net *model.Network) []model.NodeID {
	var borders []model.NodeID
	for i := range net.ASes {
		for _, nb := range net.ASes[i].Neighbors {
			borders = append(borders, nb.LocalBorder)
		}
	}
	return borders
}

// walk follows forwarding decisions, returning the node path or nil on
// drop/loop.
func walk(r *Router, net *model.Network, src, dst model.NodeID) []model.NodeID {
	path := []model.NodeID{src}
	cur := src
	for hops := 0; hops <= len(net.Nodes); hops++ {
		if cur == dst {
			return path
		}
		lid := r.NextLink(cur, dst)
		if lid < 0 {
			return nil
		}
		cur = net.Links[lid].Other(cur)
		path = append(path, cur)
	}
	return nil
}

func TestSingleASDegeneratesToOSPF(t *testing.T) {
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 80, Hosts: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := New(net)
	if r.RIB() != nil {
		t.Error("single-AS network should not run BGP")
	}
	if p := walk(r, net, 0, hostsOf(net)[5]); p == nil {
		t.Error("intra-AS walk failed")
	}
}

func TestHostToHostAcrossASes(t *testing.T) {
	net, err := mabrite.Generate(mabrite.Options{ASes: 20, RoutersPerAS: 10, Hosts: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := New(net)
	hosts := hostsOf(net)
	if len(hosts) < 2 {
		t.Fatal("need hosts")
	}
	delivered := 0
	for i := 0; i < 20; i++ {
		src := hosts[i%len(hosts)]
		dst := hosts[(i*7+3)%len(hosts)]
		if src == dst {
			continue
		}
		if p := walk(r, net, src, dst); p != nil {
			delivered++
			// First hop from a host is its access router.
			if net.Nodes[p[1]].Kind != model.Router {
				t.Errorf("host %d first hop is not a router", src)
			}
		}
	}
	if delivered == 0 {
		t.Fatal("no host pair deliverable")
	}
}

func TestAllRouterPairsRoutable(t *testing.T) {
	// Full provider coverage ⇒ full reachability at the AS level; every
	// sampled pair of a router and a border router (a destination every
	// router holds trees toward) must be walkable without loops.
	net, err := mabrite.Generate(mabrite.Options{ASes: 12, RoutersPerAS: 8, Hosts: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := New(net)
	n := len(net.Nodes)
	borders := bordersOf(net)
	for s := 0; s < 40; s++ {
		src := model.NodeID((s * 13) % n)
		dst := borders[(s*29+7)%len(borders)]
		if src == dst {
			continue
		}
		if p := walk(r, net, src, dst); p == nil {
			t.Fatalf("no route %d (AS %d) → %d (AS %d)", src, net.Nodes[src].AS, dst, net.Nodes[dst].AS)
		}
	}
}

func TestASPathRespectedInNonStubASes(t *testing.T) {
	net, err := mabrite.Generate(mabrite.Options{ASes: 15, RoutersPerAS: 6, Hosts: 0, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := New(net)
	// Pick a source router in a non-stub AS and verify the AS sequence of
	// the walked path matches the RIB AS path.
	for asID := range net.ASes {
		if net.ASes[asID].Class == model.ASStub {
			continue
		}
		src := net.ASes[asID].Routers[0]
		for dstAS := range net.ASes {
			if dstAS == asID {
				continue
			}
			ribPath := r.RIB().Path(int32(asID), int32(dstAS))
			if ribPath == nil {
				continue
			}
			dst := net.ASes[dstAS].Neighbors[0].LocalBorder
			p := walk(r, net, src, dst)
			if p == nil {
				t.Fatalf("walk %d→%d failed despite RIB path %v", src, dst, ribPath)
			}
			var asSeq []int32
			last := int32(asID)
			for _, node := range p {
				if a := net.Nodes[node].AS; a != last {
					asSeq = append(asSeq, a)
					last = a
				}
			}
			if len(asSeq) != len(ribPath) {
				t.Fatalf("AS sequence %v != RIB path %v (src AS %d)", asSeq, ribPath, asID)
			}
			for i := range asSeq {
				if asSeq[i] != ribPath[i] {
					t.Fatalf("AS sequence %v != RIB path %v", asSeq, ribPath)
				}
			}
			return // one full verification is enough
		}
	}
	t.Skip("no non-stub source with routes found")
}

func TestStubInternalRoutersDefaultRoute(t *testing.T) {
	net, err := mabrite.Generate(mabrite.Options{ASes: 20, RoutersPerAS: 10, Hosts: 0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := New(net)
	for asID := range net.ASes {
		as := &net.ASes[asID]
		if as.Class != model.ASStub || as.DefaultBorder < 0 {
			continue
		}
		// An internal (non-border) router's external packets must flow
		// through the default border.
		borders := map[model.NodeID]bool{}
		for _, nb := range as.Neighbors {
			borders[nb.LocalBorder] = true
		}
		var internal model.NodeID = -1
		for _, rt := range as.Routers {
			if !borders[rt] {
				internal = rt
				break
			}
		}
		if internal < 0 {
			continue
		}
		dstAS := (asID + 1) % len(net.ASes)
		dst := net.ASes[dstAS].Neighbors[0].LocalBorder
		p := walk(r, net, internal, dst)
		if p == nil {
			t.Fatalf("stub internal router %d cannot reach AS %d", internal, dstAS)
		}
		sawDefault := false
		for _, node := range p {
			if node == as.DefaultBorder {
				sawDefault = true
			}
			if net.Nodes[node].AS != as.ID {
				break
			}
		}
		if !sawDefault {
			t.Errorf("stub AS %d external path bypassed the default border", as.ID)
		}
		return
	}
	t.Skip("no stub AS with an internal router")
}

func TestNextLinkSelfIsDrop(t *testing.T) {
	net, err := mabrite.Generate(mabrite.Options{ASes: 5, RoutersPerAS: 3, Hosts: 0, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	r := New(net)
	if r.NextLink(3, 3) != -1 {
		t.Error("NextLink(x,x) should be -1")
	}
}

// A built router holds exactly one tree per (AS, destination forwarding
// reads): the AS's hosts, its neighbours' local borders and its default
// border. Each tree holds one entry per member of the AS, not one per node
// of the whole network — per in-scope member on a scoped router — and every
// member reaches every such destination without a lookup panicking.
func TestPrepareTablesSizedToAS(t *testing.T) {
	net, err := mabrite.Generate(mabrite.Options{ASes: 10, RoutersPerAS: 20, Hosts: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	scope := make([]bool, len(net.Nodes))
	for i := range scope {
		scope[i] = i%3 != 0
	}
	for _, sc := range []struct {
		name  string
		scope []bool
	}{{"unscoped", nil}, {"scoped", scope}} {
		t.Run(sc.name, func(t *testing.T) {
			r := build(net, sc.scope)
			for i := range net.ASes {
				as := &net.ASes[i]
				dests := map[model.NodeID]bool{}
				for _, h := range as.Hosts {
					dests[h] = true
				}
				for _, nb := range as.Neighbors {
					dests[nb.LocalBorder] = true
				}
				if as.DefaultBorder >= 0 {
					dests[as.DefaultBorder] = true
				}
				var slots []model.NodeID
				for _, m := range append(append([]model.NodeID(nil), as.Routers...), as.Hosts...) {
					if sc.scope == nil || sc.scope[m] {
						slots = append(slots, m)
					}
				}
				if got, want := r.domains[i].TableBytes(), int64(4*len(slots)*len(dests)); got != want {
					t.Errorf("AS %d: %d table bytes, want 4 B × %d slots × %d trees = %d", as.ID, got, len(slots), len(dests), want)
				}
				for dst := range dests {
					for _, cur := range slots {
						r.domains[i].NextLink(cur, dst)
					}
				}
			}
		})
	}
}

// TestAdvanceConcurrentDeterministic: the trees an epoch recomputes do not
// depend on how many goroutines computed them, for intra-AS link and
// router failures and an inter-AS link failure in one Advance.
func TestAdvanceConcurrentDeterministic(t *testing.T) {
	net, err := mabrite.Generate(mabrite.Options{ASes: 6, RoutersPerAS: 20, Hosts: 40, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	as := &net.ASes[1]
	var intra model.LinkID = -1
	for _, l := range net.Links {
		if net.Nodes[l.A].AS == as.ID && net.Nodes[l.B].AS == as.ID && net.Nodes[l.A].Kind == model.Router && net.Nodes[l.B].Kind == model.Router {
			intra = l.ID
			break
		}
	}
	if intra < 0 {
		t.Fatalf("AS %d has no router-router link", as.ID)
	}
	changes := []Change{
		LinkChange(intra, true),
		NodeChange(as.Routers[len(as.Routers)/2], true),
		LinkChange(net.ASes[0].Neighbors[0].Link, true),
	}
	base := New(net)
	advance := func(procs int) *Router {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r, _ := base.Advance(changes)
		return r
	}
	want := advance(1)
	for _, procs := range []int{runtime.GOMAXPROCS(0), 8} {
		if got := advance(procs); !reflect.DeepEqual(got.domains, want.domains) {
			t.Fatalf("domains derived at GOMAXPROCS=%d differ from GOMAXPROCS=1", procs)
		}
	}
}

// Property: every walk either delivers or drops — never loops — across
// random multi-AS networks (the hop bound in walk doubles as loop
// detection).
func TestQuickNoForwardingLoops(t *testing.T) {
	f := func(seed int64) bool {
		net, err := mabrite.Generate(mabrite.Options{ASes: 10, RoutersPerAS: 5, Hosts: 10, Seed: seed})
		if err != nil {
			return false
		}
		r := New(net)
		n := len(net.Nodes)
		hosts := hostsOf(net)
		for s := 0; s < 15; s++ {
			src := model.NodeID((s * 17) % n)
			dst := hosts[(s*31+11)%len(hosts)]
			if src == dst {
				continue
			}
			cur := src
			visited := map[model.NodeID]int{}
			for hops := 0; hops < 2*n; hops++ {
				if cur == dst {
					break
				}
				// A node may legitimately be revisited at most... never:
				// deterministic memoryless forwarding loops forever on
				// revisit with same dst.
				if visited[cur] > 0 {
					return false
				}
				visited[cur]++
				lid := r.NextLink(cur, dst)
				if lid < 0 {
					break
				}
				cur = net.Links[lid].Other(cur)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
