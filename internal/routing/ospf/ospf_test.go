package ospf

import (
	"container/heap"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"massf/internal/mabrite"
	"massf/internal/model"
	"massf/internal/topology"
)

// lineNet builds a chain 0—1—2—…—(n-1) with the given per-hop latency.
func lineNet(n int, lat int64) *model.Network {
	net := &model.Network{}
	for i := 0; i < n; i++ {
		net.AddNode(model.Router, 0, float64(i), 0)
	}
	for i := 0; i < n-1; i++ {
		net.AddLink(model.NodeID(i), model.NodeID(i+1), lat, model.Bps1G)
	}
	return net
}

// walk follows next-hop decisions from src to dst, returning the hop count
// or -1 on a routing failure or loop.
func walk(d *Domain, net *model.Network, src, dst model.NodeID) int {
	cur := src
	for hops := 0; hops <= len(net.Nodes); hops++ {
		if cur == dst {
			return hops
		}
		lid := d.NextLink(cur, dst)
		if lid < 0 {
			return -1
		}
		cur = net.Links[lid].Other(cur)
	}
	return -1
}

func TestNextLinkOnChain(t *testing.T) {
	net := lineNet(5, 1000)
	d := NewDomain(net, nil)
	if hops := walk(d, net, 0, 4); hops != 4 {
		t.Errorf("walk 0→4 took %d hops, want 4", hops)
	}
	if hops := walk(d, net, 4, 0); hops != 4 {
		t.Errorf("walk 4→0 took %d hops, want 4", hops)
	}
}

func TestNextLinkSelf(t *testing.T) {
	net := lineNet(3, 1000)
	d := NewDomain(net, nil)
	if d.NextLink(1, 1) != -1 {
		t.Error("NextLink(x, x) should be -1")
	}
}

func TestShortestPathPreferred(t *testing.T) {
	// Triangle with a shortcut: 0—1 (10), 1—2 (10), 0—2 (100). 0→2 must
	// go through 1 (cost 20 < 100).
	net := &model.Network{}
	for i := 0; i < 3; i++ {
		net.AddNode(model.Router, 0, 0, 0)
	}
	net.AddLink(0, 1, 10, model.Bps1G)
	net.AddLink(1, 2, 10, model.Bps1G)
	direct := net.AddLink(0, 2, 100, model.Bps1G)
	d := NewDomain(net, nil)
	lid := d.NextLink(0, 2)
	if lid == direct {
		t.Error("routing chose the expensive direct link")
	}
	if got := d.Distance(0, 2); got != 20 {
		t.Errorf("Distance(0,2) = %d, want 20", got)
	}
}

func TestDistanceUnreachableAndSelf(t *testing.T) {
	net := lineNet(2, 5)
	iso := net.AddNode(model.Router, 0, 9, 9) // no links
	d := NewDomain(net, nil)
	if got := d.Distance(0, iso); got != -1 {
		t.Errorf("Distance to isolated node = %d, want -1", got)
	}
	if got := d.Distance(1, 1); got != 0 {
		t.Errorf("Distance(x,x) = %d, want 0", got)
	}
}

func TestDomainMembershipRestrictsRouting(t *testing.T) {
	// Chain 0—1—2—3; domain = {0,1}. Routing to 3 must fail, and routing
	// within the domain must work.
	net := lineNet(4, 1000)
	d := NewDomain(net, []model.NodeID{0, 1})
	if d.NextLink(0, 3) != -1 {
		t.Error("routed to a node outside the domain")
	}
	if d.NextLink(0, 1) < 0 {
		t.Error("failed to route inside the domain")
	}
}

func TestDomainExcludesTransitThroughNonMembers(t *testing.T) {
	// 0—1—2 plus 0—2 expensive direct link; domain {0, 2} only. The cheap
	// path transits non-member 1 and must not be used.
	net := &model.Network{}
	for i := 0; i < 3; i++ {
		net.AddNode(model.Router, 0, 0, 0)
	}
	net.AddLink(0, 1, 1, model.Bps1G)
	net.AddLink(1, 2, 1, model.Bps1G)
	direct := net.AddLink(0, 2, 100, model.Bps1G)
	d := NewDomain(net, []model.NodeID{0, 2})
	if got := d.NextLink(0, 2); got != direct {
		t.Errorf("NextLink = %d, want direct link %d (member-only path)", got, direct)
	}
}

func TestPrepareCaches(t *testing.T) {
	net := lineNet(10, 100)
	d := NewDomain(net, nil)
	d.Prepare([]model.NodeID{3, 7})
	if got := d.CachedTables(); got != 2 {
		t.Errorf("cached tables = %d, want 2", got)
	}
	// NextLink must not add more for prepared destinations.
	d.NextLink(0, 3)
	if got := d.CachedTables(); got != 2 {
		t.Errorf("cached tables after lookup = %d, want 2", got)
	}
}

func TestConcurrentLookupsRace(t *testing.T) {
	net := lineNet(50, 100)
	d := NewDomain(net, nil)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			for i := 0; i < 200; i++ {
				dst := model.NodeID((g*7 + i) % 50)
				src := model.NodeID(i % 50)
				if src != dst {
					d.NextLink(src, dst)
				}
			}
			done <- true
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// Property: on a random connected topology, every router can walk to every
// traffic destination without loops, and the walked latency equals
// Distance.
func TestQuickRoutingSound(t *testing.T) {
	f := func(seed int64) bool {
		net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 60, Hosts: 10, Seed: seed})
		if err != nil {
			return false
		}
		d := NewDomain(net, nil)
		for s := 0; s < 10; s++ {
			src := model.NodeID(s * 6 % len(net.Nodes))
			dst := model.NodeID((s*13 + 5) % len(net.Nodes))
			if src == dst {
				continue
			}
			cur := src
			var walked int64
			ok := false
			for hops := 0; hops <= len(net.Nodes); hops++ {
				if cur == dst {
					ok = true
					break
				}
				lid := d.NextLink(cur, dst)
				if lid < 0 {
					return false
				}
				walked += net.Links[lid].Latency
				cur = net.Links[lid].Other(cur)
			}
			if !ok || walked != d.Distance(src, dst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// triangleNet builds 0—1 (10), 1—2 (10), 0—2 (100): the cheap path to 2
// transits 1, the expensive direct link is the detour.
func triangleNet(t *testing.T) (net *model.Network, cheap01, direct model.LinkID) {
	t.Helper()
	net = &model.Network{}
	for i := 0; i < 3; i++ {
		net.AddNode(model.Router, 0, 0, 0)
	}
	cheap01 = net.AddLink(0, 1, 10, model.Bps1G)
	net.AddLink(1, 2, 10, model.Bps1G)
	direct = net.AddLink(0, 2, 100, model.Bps1G)
	return net, cheap01, direct
}

// Regression for the cached-table staleness bug: a table computed before a
// link went down must not keep routing over it.
func TestSetLinkDownInvalidatesCachedTables(t *testing.T) {
	net, cheap01, direct := triangleNet(t)
	d := NewDomain(net, nil)
	if got := d.NextLink(0, 2); got == direct {
		t.Fatalf("precondition: fresh routing already uses the detour link %d", got)
	}
	d.SetLinkDown(cheap01, true)
	if got := d.NextLink(0, 2); got != direct {
		t.Fatalf("NextLink(0,2) = %d after downing link %d, want detour %d", got, cheap01, direct)
	}
	d.SetLinkDown(cheap01, false)
	if got := d.NextLink(0, 2); got == direct {
		t.Fatalf("NextLink(0,2) still uses the detour after the link healed")
	}
}

func TestSetNodeDownInvalidatesAndIsolates(t *testing.T) {
	net, _, direct := triangleNet(t)
	d := NewDomain(net, nil)
	d.Prepare([]model.NodeID{1, 2}) // warm the caches the change must invalidate
	d.SetNodeDown(1, true)
	if got := d.NextLink(0, 2); got != direct {
		t.Fatalf("NextLink(0,2) = %d with router 1 down, want detour %d", got, direct)
	}
	if got := d.NextLink(0, 1); got != -1 {
		t.Fatalf("NextLink(0,1) = %d to a down router, want -1", got)
	}
	d.SetNodeDown(1, false)
	if got := d.NextLink(0, 2); got == direct {
		t.Fatal("NextLink(0,2) still detours after router 1 recovered")
	}
}

// Clone must isolate fault state both ways: flips on the clone never leak
// into the (possibly concurrently-read) original, and vice versa.
func TestCloneIsolatesFaultState(t *testing.T) {
	net := lineNet(3, 1000)
	d := NewDomain(net, nil)
	d.Prepare([]model.NodeID{0, 2})
	c := d.Clone()
	c.SetLinkDown(0, true) // cuts the 0—1—2 chain
	if got := c.NextLink(0, 2); got != -1 {
		t.Fatalf("clone routes over its own down link: NextLink = %d", got)
	}
	if got := d.NextLink(0, 2); got < 0 {
		t.Fatal("downing a link on the clone broke routing on the original")
	}
	d.SetLinkDown(1, true)
	if got := c.NextLink(1, 2); got < 0 {
		t.Fatal("downing a link on the original broke routing on the clone")
	}
}

// Property: after downing a random link, no walk ever crosses it, and
// every reachable destination is still reached without loops.
func TestDownLinkNeverOnPath(t *testing.T) {
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 60, Hosts: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, down := range []model.LinkID{0, 7, 31} {
		d := NewDomain(net, nil)
		d.SetLinkDown(down, true)
		for s := 0; s < 12; s++ {
			src := model.NodeID(s * 5 % len(net.Nodes))
			dst := model.NodeID((s*11 + 3) % len(net.Nodes))
			if src == dst {
				continue
			}
			cur := src
			for hops := 0; cur != dst && hops <= len(net.Nodes); hops++ {
				lid := d.NextLink(cur, dst)
				if lid < 0 {
					break // legitimately unreachable with the link down
				}
				if lid == down {
					t.Fatalf("route %d→%d crosses down link %d", src, dst, down)
				}
				cur = net.Links[lid].Other(cur)
			}
		}
	}
}

// Scoped domains must make byte-identical forwarding decisions for in-scope
// nodes while retaining only O(scope) state per destination, and must
// refuse (panic) lookups from nodes outside the scope.
func TestScopedDomainMatchesUnscoped(t *testing.T) {
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 60, Hosts: 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	scope := make([]bool, len(net.Nodes))
	inScope := 0
	for i := range scope {
		if i%3 != 0 {
			scope[i] = true
			inScope++
		}
	}
	full := NewDomain(net, nil)
	scoped := NewDomainScoped(net, nil, scope)
	if !scoped.Scoped() || full.Scoped() {
		t.Fatal("Scoped() misreports")
	}
	for dst := 0; dst < len(net.Nodes); dst += 5 {
		for cur := 0; cur < len(net.Nodes); cur++ {
			if cur == dst || !scope[cur] {
				continue
			}
			w, s := full.NextLink(model.NodeID(cur), model.NodeID(dst)), scoped.NextLink(model.NodeID(cur), model.NodeID(dst))
			if w != s {
				t.Fatalf("NextLink(%d,%d): scoped %d ≠ unscoped %d", cur, dst, s, w)
			}
		}
		if fd, sd := full.Distance(1, model.NodeID(dst)), scoped.Distance(1, model.NodeID(dst)); fd != sd {
			t.Fatalf("Distance(1,%d): scoped %d ≠ unscoped %d", dst, sd, fd)
		}
	}
	// Retention: same destinations cached, but compact tables.
	wantRatio := float64(inScope) / float64(len(net.Nodes))
	if fb, sb := full.TableBytes(), scoped.TableBytes(); float64(sb) > float64(fb)*wantRatio+0.5 {
		t.Fatalf("scoped tables hold %d bytes, full %d — not compacted to scope ratio %.2f", sb, fb, wantRatio)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("lookup from an out-of-scope node did not panic")
		}
	}()
	scoped.NextLink(0, 7) // node 0 is out of scope
}

// Scoped fault handling: conservative invalidation still converges to the
// same routes as an unscoped domain after link flips.
func TestScopedDomainFaults(t *testing.T) {
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 40, Hosts: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	scope := make([]bool, len(net.Nodes))
	for i := range scope {
		scope[i] = i%2 == 0
	}
	full := NewDomain(net, nil)
	scoped := NewDomainScoped(net, nil, scope)
	for _, flip := range []struct {
		lid  model.LinkID
		down bool
	}{{3, true}, {9, true}, {3, false}} {
		full.SetLinkDown(flip.lid, flip.down)
		scoped.SetLinkDown(flip.lid, flip.down)
		for dst := 1; dst < len(net.Nodes); dst += 7 {
			for cur := 0; cur < len(net.Nodes); cur += 2 {
				if cur == dst || !scope[cur] {
					continue
				}
				w, s := full.NextLink(model.NodeID(cur), model.NodeID(dst)), scoped.NextLink(model.NodeID(cur), model.NodeID(dst))
				if w != s {
					t.Fatalf("after flip %+v: NextLink(%d,%d) scoped %d ≠ unscoped %d", flip, cur, dst, s, w)
				}
			}
		}
	}
}

// refPQ is a container/heap queue, the one sptRef runs on.
type refPQ []pqItem

func (q refPQ) Len() int           { return len(q) }
func (q refPQ) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *refPQ) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// sptRef is Dijkstra on container/heap, the oracle for spt's tie order:
// full-length next and dist over the network, fresh per call.
func sptRef(d *Domain, dst model.NodeID) ([]int32, []int64) {
	n := len(d.net.Nodes)
	dist := make([]int64, n)
	next := make([]int32, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = -1
		next[i] = -1
	}
	if d.nodeDown != nil && d.nodeDown[dst] {
		return next, dist
	}
	dist[dst] = 0
	adj := d.net.Adjacency()
	q := refPQ{{dst, 0}}
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, lid := range adj[u] {
			if d.linkDown != nil && d.linkDown[lid] {
				continue
			}
			l := &d.net.Links[lid]
			v := l.Other(u)
			if !d.contains(v) || done[v] {
				continue
			}
			if d.nodeDown != nil && d.nodeDown[v] {
				continue
			}
			nd := it.dist + l.Latency
			if dist[v] < 0 || nd < dist[v] {
				dist[v] = nd
				next[v] = int32(lid)
				heap.Push(&q, pqItem{v, nd})
			}
		}
	}
	return next, dist
}

// diamondNet builds two equal-cost (40) paths from node 5 to node 0: over
// node 2 (links 4, 1) and over node 1 (links 5, 0). Spokes 3 and 4 on
// node 0 shape the queue: the binary heap pops 2 before 1, so 5 forwards
// on link 4; a 4-ary heap pops 1 first and picks link 5.
func diamondNet() *model.Network {
	net := &model.Network{}
	for i := 0; i < 6; i++ {
		net.AddNode(model.Router, 0, 0, 0)
	}
	net.AddLink(0, 1, 20, model.Bps1G) // 0
	net.AddLink(0, 2, 20, model.Bps1G) // 1
	net.AddLink(0, 3, 30, model.Bps1G) // 2
	net.AddLink(0, 4, 10, model.Bps1G) // 3
	net.AddLink(2, 5, 20, model.Bps1G) // 4
	net.AddLink(1, 5, 20, model.Bps1G) // 5
	return net
}

// oracleRow is one domain the tie-order oracle checks: a net, its members
// (nil: all), a slice scope (nil: none) and at most one failed link and
// node (-1: none). pin, when ≥ 0, is the link node 5 must forward on
// toward node 0.
type oracleRow struct {
	name    string
	net     *model.Network
	members []model.NodeID
	scope   []bool
	link    model.LinkID
	node    model.NodeID
	pin     model.LinkID
}

func oracleRows(t *testing.T) []oracleRow {
	t.Helper()
	type base struct {
		name    string
		net     *model.Network
		members []model.NodeID
		link    model.LinkID
		node    model.NodeID
		pin     model.LinkID
	}
	var bases []base
	for _, seed := range []int64{1, 2, 3} {
		net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 60, Hosts: 15, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, base{fmt.Sprintf("flat%d", seed), net, nil, model.LinkID(len(net.Links) / 3), 7, -1})
	}
	mb, err := mabrite.Generate(mabrite.Options{ASes: 6, RoutersPerAS: 20, Hosts: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range mb.ASes {
		as := &mb.ASes[i]
		members := append(append([]model.NodeID(nil), as.Routers...), as.Hosts...)
		var inner []model.LinkID
		for _, l := range mb.Links {
			if mb.Nodes[l.A].AS == as.ID && mb.Nodes[l.B].AS == as.ID {
				inner = append(inner, l.ID)
			}
		}
		bases = append(bases, base{fmt.Sprintf("mabrite-as%d", i), mb, members, inner[len(inner)/2], as.Routers[len(as.Routers)/2], -1})
	}
	bases = append(bases, base{"diamond", diamondNet(), nil, 4, 2, 4})

	var rows []oracleRow
	for _, b := range bases {
		scope := make([]bool, len(b.net.Nodes))
		for i := range scope {
			scope[i] = i%3 != 0
		}
		for _, sc := range []struct {
			name  string
			scope []bool
		}{{"", nil}, {"/scoped", scope}} {
			rows = append(rows,
				oracleRow{b.name + sc.name, b.net, b.members, sc.scope, -1, -1, b.pin},
				oracleRow{b.name + sc.name + "/link-down", b.net, b.members, sc.scope, b.link, -1, -1},
				oracleRow{b.name + sc.name + "/node-down", b.net, b.members, sc.scope, -1, b.node, -1})
		}
	}
	return rows
}

// TestTieOrderMatchesReference pins routes to the container/heap Dijkstra
// entry for entry — every next hop and a sample of distances, toward every
// member — across flat and multi-AS nets, member-compacted and scoped
// domains, with a link or a node down. The diamond row also pins the link
// equal costs resolve to, which a heap of another shape changes.
func TestTieOrderMatchesReference(t *testing.T) {
	for _, row := range oracleRows(t) {
		t.Run(row.name, func(t *testing.T) {
			d := NewDomainScoped(row.net, row.members, row.scope)
			if row.link >= 0 {
				d.SetLinkDown(row.link, true)
			}
			if row.node >= 0 {
				d.SetNodeDown(row.node, true)
			}
			n := len(row.net.Nodes)
			for dst := model.NodeID(0); int(dst) < n; dst++ {
				if !d.contains(dst) {
					continue
				}
				next, dist := sptRef(d, dst)
				for cur := model.NodeID(0); int(cur) < n; cur++ {
					if cur == dst {
						continue
					}
					if row.scope == nil || row.scope[cur] {
						if got := d.NextLink(cur, dst); got != model.LinkID(next[cur]) {
							t.Fatalf("NextLink(%d,%d) = %d, reference %d", cur, dst, got, next[cur])
						}
					}
					if (int(cur)+int(dst))%5 == 0 {
						if got := d.Distance(cur, dst); got != dist[cur] {
							t.Fatalf("Distance(%d,%d) = %d, reference %d", cur, dst, got, dist[cur])
						}
					}
				}
			}
			if row.pin >= 0 {
				if got := d.NextLink(5, 0); got != row.pin {
					t.Fatalf("equal-cost tie at node 5 resolved to link %d, want %d", got, row.pin)
				}
			}
		})
	}
}

// hostDests returns the first n hosts of net.
func hostDests(net *model.Network, n int) []model.NodeID {
	var dests []model.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host && len(dests) < n {
			dests = append(dests, model.NodeID(i))
		}
	}
	return dests
}

// TestPrepareAllocBudget gates one warm-up on counts, not time: 64 trees on
// the flat 2000-router net cost at most two allocations each plus a
// constant, and no more bytes than a quarter over the tables they leave.
func TestPrepareAllocBudget(t *testing.T) {
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 2000, Hosts: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dests := hostDests(net, 64)
	prepare := func() *Domain {
		d := NewDomain(net, nil)
		d.Prepare(dests)
		return d
	}
	allocs := testing.AllocsPerRun(5, func() { prepare() })
	if budget := float64(2*len(dests) + 16); allocs > budget {
		t.Errorf("Prepare of %d destinations made %.0f allocations, budget %.0f", len(dests), allocs, budget)
	}

	// Bytes at the default GOMAXPROCS, so the fan-out's scratch counts too.
	const runs = 10
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var d *Domain
	for range runs {
		d = prepare()
	}
	runtime.ReadMemStats(&m1)
	perRun := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	t.Logf("Prepare of %d destinations: %.0f allocations, %.0f bytes, %d table bytes", len(dests), allocs, perRun, d.TableBytes())
	if budget := 1.25 * float64(d.TableBytes()); perRun > budget {
		t.Errorf("Prepare allocated %.0f bytes, budget %.0f (1.25 × table bytes)", perRun, budget)
	}
}

// TestPrepareConcurrentDeterministic: the tables Prepare leaves do not
// depend on how many goroutines computed them, and lookups racing a
// Prepare (run under -race) agree with it.
func TestPrepareConcurrentDeterministic(t *testing.T) {
	flat, err := topology.GenerateFlat(topology.FlatOptions{Routers: 300, Hosts: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := mabrite.Generate(mabrite.Options{ASes: 4, RoutersPerAS: 60, Hosts: 80, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	as := &mb.ASes[0]
	for _, row := range []struct {
		name    string
		net     *model.Network
		members []model.NodeID
	}{
		{"flat", flat, nil},
		{"mabrite-as0", mb, append(append([]model.NodeID(nil), as.Routers...), as.Hosts...)},
	} {
		t.Run(row.name, func(t *testing.T) {
			dests := append([]model.NodeID(nil), row.members...)
			if dests == nil {
				dests = hostDests(row.net, len(row.net.Nodes))
			}
			dests = append(dests, dests[:10]...) // duplicates compute once
			tables := func(procs int) map[model.NodeID][]int32 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				d := NewDomain(row.net, row.members)
				d.Prepare(dests)
				return d.tables
			}
			want := tables(1)
			for _, procs := range []int{runtime.GOMAXPROCS(0), 8} {
				if got := tables(procs); !reflect.DeepEqual(got, want) {
					t.Fatalf("tables at GOMAXPROCS=%d differ from GOMAXPROCS=1", procs)
				}
			}

			d := NewDomain(row.net, row.members)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, dst := range dests {
					d.NextLink(dests[(i+1)%len(dests)], dst)
				}
			}()
			d.Prepare(dests)
			wg.Wait()
			if !reflect.DeepEqual(d.tables, want) {
				t.Fatal("tables after Prepare raced by NextLink differ from a quiet Prepare")
			}
		})
	}
}

func BenchmarkSPT2000Routers(b *testing.B) {
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 2000, Hosts: 0, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDomain(net, nil)
		d.Prepare([]model.NodeID{model.NodeID(i % 2000)})
	}
}
