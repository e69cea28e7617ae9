package ospf

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
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

// everyNode lists every node of net: the destinations of a domain that
// routes toward anything.
func everyNode(net *model.Network) []model.NodeID {
	all := make([]model.NodeID, len(net.Nodes))
	for i := range all {
		all[i] = model.NodeID(i)
	}
	return all
}

// distance runs Dijkstra toward dst on fresh scratch and returns cur's
// shortest-path latency (ns), or -1 if unreachable.
func distance(d *Domain, cur, dst model.NodeID) int64 {
	if !d.contains(cur) || !d.contains(dst) {
		return -1
	}
	s := getScratch(len(d.net.Nodes))
	d.spt(dst, s)
	dist := s.dist[cur]
	s.reset()
	scratchPool.Put(s)
	return dist
}

// setLink derives d with link lid down (or restored), on a fresh mask.
func setLink(d *Domain, lid model.LinkID, down bool) *Domain {
	mask := make([]bool, len(d.net.Links))
	copy(mask, d.linkDown)
	mask[lid] = down
	return d.Advance(mask, d.nodeDown)
}

// setNode derives d with node n down (or restored), on a fresh mask.
func setNode(d *Domain, n model.NodeID, down bool) *Domain {
	mask := make([]bool, len(d.net.Nodes))
	copy(mask, d.nodeDown)
	mask[n] = down
	return d.Advance(d.linkDown, mask)
}

// rebuild is d with the given failures and every tree computed from
// scratch under them: the domain New would build were those elements
// failed from the start.
func rebuild(d *Domain, linkDown, nodeDown []bool) *Domain {
	r := *d
	r.linkDown, r.nodeDown = linkDown, nodeDown
	r.tables = make([][]int32, len(d.tables))
	cols := make([]int, len(d.tables))
	for c := range cols {
		cols[c] = c
	}
	r.fill(cols)
	return &r
}

// walk follows next-hop decisions from src to dst, returning the hop count
// (-1 on a routing failure or loop) and the latency walked.
func walk(d *Domain, net *model.Network, src, dst model.NodeID) (hops int, latency int64) {
	for cur := src; hops <= len(net.Nodes); hops++ {
		if cur == dst {
			return hops, latency
		}
		lid := d.NextLink(cur, dst)
		if lid < 0 {
			return -1, latency
		}
		latency += net.Links[lid].Latency
		cur = net.Links[lid].Other(cur)
	}
	return -1, latency
}

func TestNextLinkOnChain(t *testing.T) {
	net := lineNet(5, 1000)
	d := New(net, nil, nil, everyNode(net))
	if hops, _ := walk(d, net, 0, 4); hops != 4 {
		t.Errorf("walk 0→4 took %d hops, want 4", hops)
	}
	if hops, _ := walk(d, net, 4, 0); hops != 4 {
		t.Errorf("walk 4→0 took %d hops, want 4", hops)
	}
}

func TestNextLinkSelf(t *testing.T) {
	net := lineNet(3, 1000)
	d := New(net, nil, nil, everyNode(net))
	if d.NextLink(1, 1) != -1 {
		t.Error("NextLink(x, x) should be -1")
	}
}

func TestShortestPathPreferred(t *testing.T) {
	// 0→2 must go through 1 (cost 20 < 100).
	net, _, direct := triangleNet(t)
	d := New(net, nil, nil, everyNode(net))
	if lid := d.NextLink(0, 2); lid == direct {
		t.Error("routing chose the expensive direct link")
	}
	if got := distance(d, 0, 2); got != 20 {
		t.Errorf("Distance(0,2) = %d, want 20", got)
	}
}

func TestDistanceUnreachableAndSelf(t *testing.T) {
	net := lineNet(2, 5)
	iso := net.AddNode(model.Router, 0, 9, 9) // no links
	d := New(net, nil, nil, everyNode(net))
	if got := distance(d, 0, iso); got != -1 {
		t.Errorf("Distance to isolated node = %d, want -1", got)
	}
	if got := d.NextLink(0, iso); got != -1 {
		t.Errorf("NextLink to isolated node = %d, want -1", got)
	}
	if got := distance(d, 1, 1); got != 0 {
		t.Errorf("Distance(x,x) = %d, want 0", got)
	}
}

func TestDomainMembershipRestrictsRouting(t *testing.T) {
	// Chain 0—1—2—3; domain = {0,1}. Routing to 3 must fail, and routing
	// within the domain must work.
	net := lineNet(4, 1000)
	d := New(net, []model.NodeID{0, 1}, nil, everyNode(net))
	if d.NextLink(0, 3) != -1 {
		t.Error("routed to a node outside the domain")
	}
	if d.NextLink(0, 1) < 0 {
		t.Error("failed to route inside the domain")
	}
}

func TestDomainExcludesTransitThroughNonMembers(t *testing.T) {
	// Domain {0, 2} only: the cheap path transits non-member 1 and must
	// not be used.
	net, _, direct := triangleNet(t)
	d := New(net, []model.NodeID{0, 2}, nil, everyNode(net))
	if got := d.NextLink(0, 2); got != direct {
		t.Errorf("NextLink = %d, want direct link %d (member-only path)", got, direct)
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
		d := New(net, nil, nil, everyNode(net))
		for s := 0; s < 10; s++ {
			src := model.NodeID(s * 6 % len(net.Nodes))
			dst := model.NodeID((s*13 + 5) % len(net.Nodes))
			if src == dst {
				continue
			}
			if hops, walked := walk(d, net, src, dst); hops < 0 || walked != distance(d, src, dst) {
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

// Regression for the cached-table staleness bug: a tree computed before a
// link went down must not keep routing over it in the derived domain.
func TestSetLinkDownInvalidatesCachedTables(t *testing.T) {
	net, cheap01, direct := triangleNet(t)
	d := New(net, nil, nil, everyNode(net))
	if got := d.NextLink(0, 2); got == direct {
		t.Fatalf("precondition: fresh routing already uses the detour link %d", got)
	}
	down := setLink(d, cheap01, true)
	if got := down.NextLink(0, 2); got != direct {
		t.Fatalf("NextLink(0,2) = %d after downing link %d, want detour %d", got, cheap01, direct)
	}
	if got := setLink(down, cheap01, false).NextLink(0, 2); got == direct {
		t.Fatalf("NextLink(0,2) still uses the detour after the link healed")
	}
}

func TestSetNodeDownInvalidatesAndIsolates(t *testing.T) {
	net, _, direct := triangleNet(t)
	d := New(net, nil, nil, []model.NodeID{1, 2}) // trees the change must stale
	down := setNode(d, 1, true)
	if got := down.NextLink(0, 2); got != direct {
		t.Fatalf("NextLink(0,2) = %d with router 1 down, want detour %d", got, direct)
	}
	if got := down.NextLink(0, 1); got != -1 {
		t.Fatalf("NextLink(0,1) = %d to a down router, want -1", got)
	}
	if got := setNode(down, 1, false).NextLink(0, 2); got == direct {
		t.Fatal("NextLink(0,2) still detours after router 1 recovered")
	}
}

// Advance must isolate fault state both ways: a derived domain's failures
// never leak into the (possibly concurrently read) domain it came from,
// and a later derivation from that domain never reaches the first one.
func TestCloneIsolatesFaultState(t *testing.T) {
	net := lineNet(3, 1000)
	d := New(net, nil, nil, []model.NodeID{0, 2})
	c := setLink(d, 0, true) // cuts the 0—1—2 chain
	if got := c.NextLink(0, 2); got != -1 {
		t.Fatalf("derived domain routes over its own down link: NextLink = %d", got)
	}
	if got := d.NextLink(0, 2); got < 0 {
		t.Fatal("downing a link on the derived domain broke routing on the original")
	}
	setLink(d, 1, true)
	if got := c.NextLink(1, 2); got < 0 {
		t.Fatal("downing a link on the original broke routing on the derived domain")
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
		d := setLink(New(net, nil, nil, everyNode(net)), down, true)
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
// refuse (panic, naming the node) lookups from nodes outside the scope and
// toward members that are not destinations.
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
	var dests []model.NodeID
	for dst := 0; dst < len(net.Nodes); dst += 5 {
		dests = append(dests, model.NodeID(dst))
	}
	full := New(net, nil, nil, dests)
	scoped := New(net, nil, scope, dests)
	for _, dst := range dests {
		for cur := 0; cur < len(net.Nodes); cur++ {
			if model.NodeID(cur) == dst || !scope[cur] {
				continue
			}
			w, s := full.NextLink(model.NodeID(cur), dst), scoped.NextLink(model.NodeID(cur), dst)
			if w != s {
				t.Fatalf("NextLink(%d,%d): scoped %d ≠ unscoped %d", cur, dst, s, w)
			}
		}
	}
	// Retention: the same destinations, but compact tables.
	wantRatio := float64(inScope) / float64(len(net.Nodes))
	if fb, sb := full.TableBytes(), scoped.TableBytes(); float64(sb) > float64(fb)*wantRatio+0.5 {
		t.Fatalf("scoped tables hold %d bytes, full %d — not compacted to scope ratio %.2f", sb, fb, wantRatio)
	}
	for _, row := range []struct {
		name     string
		cur, dst model.NodeID
		want     string
	}{
		{"out-of-scope source", 0, 5, "node 0 outside"}, // node 0 is out of scope
		{"no tree toward destination", 1, 7, "toward node 7"},
	} {
		t.Run(row.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, row.want) {
					t.Fatalf("NextLink(%d,%d) panicked with %q, want a message containing %q", row.cur, row.dst, msg, row.want)
				}
			}()
			scoped.NextLink(row.cur, row.dst)
		})
	}
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
	full := New(net, nil, nil, everyNode(net))
	scoped := New(net, nil, scope, everyNode(net))
	for _, flip := range []struct {
		lid  model.LinkID
		down bool
	}{{3, true}, {9, true}, {3, false}} {
		full = setLink(full, flip.lid, flip.down)
		scoped = setLink(scoped, flip.lid, flip.down)
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

// sptRef is the oracle for spt: distances toward dst by Bellman-Ford over
// the domain's live links, and every next hop by the equal-cost rule read
// straight off them. Full length over the network, fresh per call.
func sptRef(d *Domain, dst model.NodeID) ([]int32, []int64) {
	n := len(d.net.Nodes)
	dist := make([]int64, n)
	next := make([]int32, n)
	for i := range dist {
		dist[i], next[i] = -1, -1
	}
	if failed(d.nodeDown, int(dst)) {
		return next, dist
	}
	var live []model.Link
	for _, l := range d.net.Links {
		if !failed(d.linkDown, int(l.ID)) && d.contains(l.A) && d.contains(l.B) && !failed(d.nodeDown, int(l.A)) && !failed(d.nodeDown, int(l.B)) {
			live = append(live, l)
		}
	}
	dist[dst] = 0
	for relaxed := true; relaxed; {
		relaxed = false
		for _, l := range live {
			for _, w := range []model.NodeID{l.A, l.B} {
				if v := l.Other(w); dist[w] >= 0 && (dist[v] < 0 || dist[w]+l.Latency < dist[v]) {
					dist[v], relaxed = dist[w]+l.Latency, true
				}
			}
		}
	}
	// Links in id order: a strictly nearer neighbour replaces, an equally
	// near one keeps the lower id.
	for _, l := range live {
		for _, w := range []model.NodeID{l.A, l.B} {
			v := l.Other(w)
			if v == dst || dist[w] < 0 || dist[w]+l.Latency != dist[v] {
				continue
			}
			if next[v] < 0 || dist[w] < dist[d.net.Links[next[v]].Other(v)] {
				next[v] = int32(l.ID)
			}
		}
	}
	return next, dist
}

// diamondNet builds two equal-cost (40) paths from node 5 to node 0: over
// node 2 (links 4, 1) and over node 1 (links 5, 0). Both neighbours are 20
// from node 0, so the rule sends 5 over the lower link id, 4, whichever of
// them a queue pops first (spokes 3 and 4 on node 0 shape the queue).
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

// msNet is a flat net with every latency rounded to a whole millisecond:
// equal-cost paths abound, so nearly every tree has a node the rule
// decides.
func msNet(t testing.TB, seed int64) *model.Network {
	t.Helper()
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 60, Hosts: 15, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return wholeMs(net)
}

// wholeMs rounds every latency of net to a whole millisecond, in place.
func wholeMs(net *model.Network) *model.Network {
	for i := range net.Links {
		l := &net.Links[i]
		l.Latency = max(1, (l.Latency+500_000)/1_000_000) * 1_000_000
	}
	return net
}

// wideNet is a flat net plus one router hung off router 0 by a 10 s link,
// thousands of times the widest generated latency: the slot width grows
// until one lap of the ring spans it, and most slots then hold several
// distances.
func wideNet(t testing.TB, seed int64) *model.Network {
	t.Helper()
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 60, Hosts: 15, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	far := net.AddNode(model.Router, 0, 0, 0)
	net.AddLink(0, far, 10_000_000_000, model.Bps1G)
	return net
}

// oracleRow is one domain the equal-cost rule oracle checks: a net, its
// members (nil: all), a slice scope (nil: none) and at most one failed
// link and node (-1: none). pin, when ≥ 0, is the link node 5 must forward
// on toward node 0.
type oracleRow struct {
	name    string
	net     *model.Network
	members []model.NodeID
	scope   []bool
	link    model.LinkID
	node    model.NodeID
	pin     model.LinkID
}

// masks returns the row's failure masks (nil ⇒ none failed).
func (row oracleRow) masks() (linkDown, nodeDown []bool) {
	if row.link >= 0 {
		linkDown = make([]bool, len(row.net.Links))
		linkDown[row.link] = true
	}
	if row.node >= 0 {
		nodeDown = make([]bool, len(row.net.Nodes))
		nodeDown[row.node] = true
	}
	return linkDown, nodeDown
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
	tied := msNet(t, 4)
	bases = append(bases, base{"flat-ms", tied, nil, model.LinkID(len(tied.Links) / 3), 7, -1})
	wide := wideNet(t, 5)
	bases = append(bases, base{"flat-10s-link", wide, nil, model.LinkID(len(wide.Links) - 1), 7, -1})
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

// TestTieOrderMatchesReference pins how equal-cost ties resolve to the
// stated rule, computed from Bellman-Ford distances, entry for entry —
// every next hop and a sample of distances, toward every member — across
// flat and multi-AS nets, one of whole-millisecond latencies where nearly
// every tree has ties, member-compacted and scoped domains, with a link or
// a node down. The diamond row also pins the link its equal costs resolve
// to.
func TestTieOrderMatchesReference(t *testing.T) {
	for _, row := range oracleRows(t) {
		t.Run(row.name, func(t *testing.T) {
			linkDown, nodeDown := row.masks()
			d := rebuild(New(row.net, row.members, row.scope, everyNode(row.net)), linkDown, nodeDown)
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
						if got := distance(d, cur, dst); got != dist[cur] {
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

// TestHostTreeIsAccessRouterTree: toward a single-homed host every other
// node forwards as it does toward the host's access router, so a host's
// tree is its router's tree plus the access link — on whole-millisecond
// nets, where nearly every tree has ties, and inside every AS of a
// multi-AS net.
func TestHostTreeIsAccessRouterTree(t *testing.T) {
	type row struct {
		name    string
		net     *model.Network
		members []model.NodeID
	}
	var rows []row
	for seed := int64(1); seed <= 6; seed++ {
		rows = append(rows, row{fmt.Sprintf("flat-ms%d", seed), msNet(t, seed), nil})
	}
	mb, err := mabrite.Generate(mabrite.Options{ASes: 6, RoutersPerAS: 20, Hosts: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, as := range wholeMs(mb).ASes {
		if len(as.Hosts) > 0 {
			rows = append(rows, row{fmt.Sprintf("mabrite-ms-as%d", as.ID), mb, append(append([]model.NodeID(nil), as.Routers...), as.Hosts...)})
		}
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			d := New(row.net, row.members, nil, everyNode(row.net))
			hosts := 0
			for h := range row.net.Nodes {
				h := model.NodeID(h)
				access := row.net.Incident(h)
				if row.net.Nodes[h].Kind != model.Host || len(access) != 1 || !d.contains(h) {
					continue
				}
				hosts++
				r := row.net.Links[access[0]].Other(h)
				for v := range row.net.Nodes {
					if v := model.NodeID(v); v != h && v != r && d.NextLink(v, h) != d.NextLink(v, r) {
						t.Fatalf("node %d forwards toward host %d on link %d, toward its router %d on link %d", v, h, d.NextLink(v, h), r, d.NextLink(v, r))
					}
				}
			}
			if hosts == 0 {
				t.Fatal("no single-homed host in the domain")
			}
		})
	}
}

// TestSlotShift: a 10 s link widens the slots until one lap of the ring
// spans it, and no further; a member link of latency ≤ 0 is refused,
// named, while one outside the domain is not read.
func TestSlotShift(t *testing.T) {
	wide := wideNet(t, 5)
	if d, widest := New(wide, nil, nil, nil), wide.Links[len(wide.Links)-1].Latency; widest>>d.shift > maxSpan || widest>>(d.shift-1) <= maxSpan {
		t.Errorf("shift %d for a %d ns link: not the least that spans it in %d slots", d.shift, widest, maxSpan)
	}
	net := lineNet(4, 1000)
	net.Links[2].Latency = 0
	New(net, []model.NodeID{0, 1, 2}, nil, nil)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "link 2 has latency 0") {
			t.Fatalf("New panicked with %q, want it to name link 2", msg)
		}
	}()
	New(net, nil, nil, nil)
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

// TestPrepareAllocBudget gates one warm-up — a domain's construction — on
// counts, not time: 64 trees on the flat 2000-router net cost at most two
// allocations each plus a constant, and no more bytes than a quarter over
// the tables they leave.
func TestPrepareAllocBudget(t *testing.T) {
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 2000, Hosts: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dests := hostDests(net, 64)
	build := func() *Domain { return New(net, nil, nil, dests) }
	allocs := testing.AllocsPerRun(5, func() { build() })
	if budget := float64(2*len(dests) + 16); allocs > budget {
		t.Errorf("building %d destinations made %.0f allocations, budget %.0f", len(dests), allocs, budget)
	}

	// Bytes at the default GOMAXPROCS, so the fan-out's scratch counts too.
	const runs = 10
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var d *Domain
	for range runs {
		d = build()
	}
	runtime.ReadMemStats(&m1)
	perRun := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	t.Logf("building %d destinations: %.0f allocations, %.0f bytes, %d table bytes", len(dests), allocs, perRun, d.TableBytes())
	if budget := 1.25 * float64(d.TableBytes()); perRun > budget {
		t.Errorf("building allocated %.0f bytes, budget %.0f (1.25 × table bytes)", perRun, budget)
	}
}

// TestPrepareConcurrentDeterministic: the tables a domain is built with do
// not depend on how many goroutines computed them.
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
			tables := func(procs int) [][]int32 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				return New(row.net, row.members, nil, dests).tables
			}
			want := tables(1)
			for _, procs := range []int{runtime.GOMAXPROCS(0), 8} {
				if got := tables(procs); !reflect.DeepEqual(got, want) {
					t.Fatalf("tables at GOMAXPROCS=%d differ from GOMAXPROCS=1", procs)
				}
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
		New(net, nil, nil, []model.NodeID{model.NodeID(i % 2000)})
	}
}

// TestAdvanceMatchesRebuildReference: a derived domain recomputes every
// tree its change could stale, so its trees equal those of the domain
// built from scratch with the same elements failed — for a link going down
// on a tree and on none, a router and a destination going down, each of
// them coming back, and an inter-AS link of a multi-AS net going down;
// scoped and unscoped, toward the hosts and borders forwarding reads.
func TestAdvanceMatchesRebuildReference(t *testing.T) {
	type base struct {
		name           string
		net            *model.Network
		members, dests []model.NodeID
	}
	flat, err := topology.GenerateFlat(topology.FlatOptions{Routers: 60, Hosts: 15, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := mabrite.Generate(mabrite.Options{ASes: 6, RoutersPerAS: 20, Hosts: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bases := []base{{"flat", flat, nil, hostDests(flat, len(flat.Nodes))}}
	for _, as := range mb.ASes[:3] {
		dests := append([]model.NodeID(nil), as.Hosts...)
		for _, nb := range as.Neighbors {
			dests = append(dests, nb.LocalBorder)
		}
		if as.DefaultBorder >= 0 {
			dests = append(dests, as.DefaultBorder)
		}
		members := append(append([]model.NodeID(nil), as.Routers...), as.Hosts...)
		bases = append(bases, base{fmt.Sprintf("mabrite-as%d", as.ID), mb, members, dests})
	}
	for _, b := range bases {
		full := New(b.net, b.members, nil, b.dests)
		// The elements the rows fail, picked from the unscoped trees.
		used := make([]bool, len(b.net.Links))
		for _, tr := range full.tables {
			for _, next := range tr {
				if next >= 0 {
					used[next] = true
				}
			}
		}
		onTree, offTree, interAS := model.LinkID(-1), model.LinkID(-1), model.LinkID(-1)
		for _, l := range b.net.Links {
			switch in := full.contains(l.A) && full.contains(l.B); {
			case in && used[l.ID] && onTree < 0 && b.net.Nodes[l.A].Kind == model.Router && b.net.Nodes[l.B].Kind == model.Router:
				onTree = l.ID
			case in && !used[l.ID] && offTree < 0:
				offTree = l.ID
			case !in && (full.contains(l.A) || full.contains(l.B)) && interAS < 0:
				interAS = l.ID
			}
		}
		if onTree < 0 || offTree < 0 {
			t.Fatalf("%s: no router link on a tree (%d) or member link on none (%d)", b.name, onTree, offTree)
		}
		router, dest := b.net.Links[onTree].A, full.dests[len(full.dests)/2]
		type state struct {
			links []model.LinkID
			nodes []model.NodeID
		}
		type row struct {
			name          string
			parent, child state
		}
		rows := []row{
			{"link-down-on-tree", state{}, state{links: []model.LinkID{onTree}}},
			{"link-down-off-tree", state{}, state{links: []model.LinkID{offTree}}},
			{"link-restored", state{links: []model.LinkID{onTree}}, state{}},
			{"node-down", state{}, state{nodes: []model.NodeID{router}}},
			{"destination-down", state{}, state{nodes: []model.NodeID{dest}}},
			{"node-restored", state{nodes: []model.NodeID{router, dest}}, state{nodes: []model.NodeID{dest}}},
		}
		if interAS >= 0 {
			rows = append(rows, row{"inter-as-link-down", state{}, state{links: []model.LinkID{interAS}}})
		}
		masks := func(s state) (linkDown, nodeDown []bool) {
			if len(s.links) > 0 {
				linkDown = make([]bool, len(b.net.Links))
				for _, lid := range s.links {
					linkDown[lid] = true
				}
			}
			if len(s.nodes) > 0 {
				nodeDown = make([]bool, len(b.net.Nodes))
				for _, n := range s.nodes {
					nodeDown[n] = true
				}
			}
			return linkDown, nodeDown
		}
		scope := make([]bool, len(b.net.Nodes))
		for i := range scope {
			scope[i] = i%3 != 0
		}
		for _, sc := range []struct {
			name  string
			scope []bool
		}{{"", nil}, {"/scoped", scope}} {
			d := New(b.net, b.members, sc.scope, b.dests)
			for _, row := range rows {
				t.Run(b.name+sc.name+"/"+row.name, func(t *testing.T) {
					parent := d
					if pl, pn := masks(row.parent); pl != nil || pn != nil {
						parent = rebuild(d, pl, pn)
					}
					cl, cn := masks(row.child)
					got, want := parent.Advance(cl, cn), rebuild(parent, cl, cn)
					for c, tr := range want.tables {
						for k, next := range tr {
							if got.tables[c][k] != next {
								t.Fatalf("tree toward %d, row %d: derived next hop %d, rebuilt %d", want.dests[c], k, got.tables[c][k], next)
							}
						}
					}
				})
			}
		}
	}
}

// BenchmarkPrepareFlat2000 is one routing warm-up of the benchmark's flat
// net: the trees toward its 1 000 hosts over 2 000 routers, on every core.
func BenchmarkPrepareFlat2000(b *testing.B) {
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 2000, Hosts: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	dests := hostDests(net, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(net, nil, nil, dests)
	}
}
