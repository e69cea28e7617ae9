// Package ospf implements shortest-path intra-domain routing over the
// virtual network — the paper's flat OSPF routing for single-AS networks
// and the interior gateway protocol inside every AS of a multi-AS network.
//
// Routing state is organized per destination: a Dijkstra shortest-path tree
// rooted at the destination gives every member node its next-hop link
// toward it. Trees are computed lazily and cached (a 20,000-router network
// never needs all 400M pairs, only the destinations traffic actually
// targets), using link latency as the OSPF cost metric. A cached tree holds
// one entry per member of the domain — O(domain) per destination, so an
// AS's tables do not grow with the rest of the network.
//
// A domain may additionally be scoped to a node subset (a distributed
// worker's slice): lookups still run Dijkstra over every member, so routes
// and tie-breaking are byte-identical to an unscoped domain, but the cached
// tree keeps entries only for in-scope members — O(scope) per destination,
// which is what makes 100k-router slices fit.
//
// Dijkstra's queue is a binary heap whose sift-up and sift-down are
// container/heap's, so entries of equal distance leave it in exactly the
// order container/heap would give; that order decides between equal-cost
// next hops, and a heap of another shape would pick different routes.
package ospf

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"massf/internal/model"
)

// Domain is one OSPF routing domain: a set of member nodes within which
// shortest paths are computed. Links with both endpoints inside the member
// set are part of the domain.
type Domain struct {
	net *model.Network

	// scoped marks a domain whose trees keep entries only for the nodes of
	// a worker's slice. A slice-local worker only ever forwards from nodes
	// it owns, so an out-of-scope lookup is a partitioning bug and panics
	// rather than silently misrouting.
	scoped bool

	// slot maps a node id to its entry in a cached tree. A node has one if
	// it is a member and, on a scoped domain, in scope; otherwise its slot
	// is notMember or outOfScope. nil means identity: every node is a
	// member and none is out of scope. slots is the length of every cached
	// tree.
	slot  []int32
	slots int

	// linkDown/nodeDown mark failed elements SPF must route around
	// (nil ⇒ none). Mutated only via SetLinkDown/SetNodeDown, which also
	// invalidate any cached trees the change could stale.
	linkDown []bool
	nodeDown []bool

	mu sync.RWMutex
	// tables caches one next-hop tree per destination, indexed by slot:
	// exactly 4 bytes per slotted node per destination.
	tables map[model.NodeID][]int32
}

// Slot values of nodes without an entry in a cached tree.
const (
	notMember  = -1
	outOfScope = -2
)

// NewDomain creates a domain over the given member nodes. A nil or empty
// members slice means the whole network is one domain (the single-AS case).
func NewDomain(net *model.Network, members []model.NodeID) *Domain {
	return NewDomainScoped(net, members, nil)
}

// NewDomainScoped creates a domain like NewDomain but retaining next-hop
// state only for nodes marked in scope (full-length over net.Nodes). A nil
// scope is equivalent to NewDomain.
func NewDomainScoped(net *model.Network, members []model.NodeID, scope []bool) *Domain {
	n := len(net.Nodes)
	d := &Domain{net: net, scoped: scope != nil, slots: n, tables: make(map[model.NodeID][]int32)}
	if len(members) == 0 && scope == nil {
		return d
	}
	slot := make([]int32, n) // 0: a member, not yet numbered
	if len(members) > 0 {
		for i := range slot {
			slot[i] = notMember
		}
		for _, m := range members {
			slot[m] = 0
		}
	}
	d.slots = 0
	for i, s := range slot {
		switch {
		case s == notMember:
		case scope != nil && !scope[i]:
			slot[i] = outOfScope
		default:
			slot[i] = int32(d.slots)
			d.slots++
		}
	}
	if d.slots < n {
		d.slot = slot
	}
	return d
}

// Scoped reports whether the domain retains only slice-local state.
func (d *Domain) Scoped() bool { return d.scoped }

// contains reports whether node n belongs to the domain.
func (d *Domain) contains(n model.NodeID) bool {
	return d.slot == nil || d.slot[n] != notMember
}

// slotOf maps member cur to its entry in a cached tree, panicking on nodes
// outside the slice scope: only owned nodes forward on a sliced worker.
func (d *Domain) slotOf(cur model.NodeID) int32 {
	if d.slot == nil {
		return int32(cur)
	}
	s := d.slot[cur]
	if s < 0 {
		panic(fmt.Sprintf("ospf: lookup from node %d outside the domain's slice scope", cur))
	}
	return s
}

// NextLink returns the link on which cur forwards a packet destined to dst,
// or -1 if cur has no route (outside domain, disconnected, or cur == dst).
func (d *Domain) NextLink(cur, dst model.NodeID) model.LinkID {
	if cur == dst || !d.contains(cur) || !d.contains(dst) {
		return -1
	}
	d.mu.RLock()
	t, ok := d.tables[dst]
	d.mu.RUnlock()
	if !ok {
		t = d.computeAndStore(dst)
	}
	return model.LinkID(t[d.slotOf(cur)])
}

// Distance returns the shortest-path latency (ns) from cur to dst within
// the domain, or -1 if unreachable. A diagnostic/test query, not a hot
// path: it runs Dijkstra toward dst and reads the distance it computed,
// leaving the cached tables as they were.
func (d *Domain) Distance(cur, dst model.NodeID) int64 {
	if !d.contains(cur) || !d.contains(dst) {
		return -1
	}
	if cur == dst {
		return 0
	}
	s := getScratch(len(d.net.Nodes))
	d.spt(dst, s)
	dist := s.dist[cur]
	s.reset()
	scratchPool.Put(s)
	return dist
}

// Prepare precomputes shortest-path trees for the given destinations. Call
// during setup so the simulation's hot path only reads. The missing trees
// are computed concurrently, each into its own slot of the result, and
// inserted in one locked pass, so the tables do not depend on scheduling.
func (d *Domain) Prepare(dests []model.NodeID) {
	todo := make([]model.NodeID, 0, len(dests))
	d.mu.RLock()
	for _, dst := range dests {
		if _, ok := d.tables[dst]; !ok && d.contains(dst) {
			todo = append(todo, dst)
		}
	}
	d.mu.RUnlock()
	slices.Sort(todo)
	todo = slices.Compact(todo)
	if len(todo) == 0 {
		return
	}
	out := make([][]int32, len(todo))
	var claimed atomic.Int64
	work := func() {
		s := getScratch(len(d.net.Nodes))
		for i := claimed.Add(1) - 1; i < int64(len(todo)); i = claimed.Add(1) - 1 {
			out[i] = d.tree(todo[i], s)
		}
		scratchPool.Put(s)
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(todo)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	d.mu.Lock()
	for i, dst := range todo {
		if _, ok := d.tables[dst]; !ok {
			d.tables[dst] = out[i]
		}
	}
	d.mu.Unlock()
}

// CachedTables reports how many destination trees are cached.
func (d *Domain) CachedTables() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.tables)
}

// TableBytes reports the approximate heap bytes held by cached trees:
// 4 bytes per member (per in-scope member on a scoped domain) per cached
// destination.
func (d *Domain) TableBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var total int64
	for _, t := range d.tables {
		total += int64(len(t)) * 4
	}
	return total
}

// Clone returns an independent copy of the domain sharing the immutable
// network and slot index but owning its cached tables and failure masks,
// so SetLinkDown/SetNodeDown on the clone never disturb the original. The cached table slices themselves are shared — they are never
// mutated after computation, only replaced.
func (d *Domain) Clone() *Domain {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c := &Domain{
		net:    d.net,
		scoped: d.scoped,
		slot:   d.slot,
		slots:  d.slots,
		tables: make(map[model.NodeID][]int32, len(d.tables)),
	}
	for dst, t := range d.tables {
		c.tables[dst] = t
	}
	if d.linkDown != nil {
		c.linkDown = append([]bool(nil), d.linkDown...)
	}
	if d.nodeDown != nil {
		c.nodeDown = append([]bool(nil), d.nodeDown...)
	}
	return c
}

// SetLinkDown marks link lid failed (or restores it) and invalidates every
// cached tree the change could stale: a failure only invalidates trees that
// actually route over lid; a restoration invalidates all trees, since any
// of them might now have a shorter path through the revived link. Later
// NextLink calls recompute lazily.
//
// A scoped domain invalidates conservatively — all trees on any change —
// because a compacted tree cannot prove the failed element is absent from
// the out-of-scope part of the path.
func (d *Domain) SetLinkDown(lid model.LinkID, down bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.linkDown == nil {
		if !down {
			return
		}
		d.linkDown = make([]bool, len(d.net.Links))
	}
	if d.linkDown[lid] == down {
		return
	}
	d.linkDown[lid] = down
	if !down || d.scoped {
		clear(d.tables)
		return
	}
	for dst, t := range d.tables {
		for _, next := range t {
			if next == int32(lid) {
				delete(d.tables, dst)
				break
			}
		}
	}
}

// SetNodeDown marks node n failed (or restores it). A failed node neither
// forwards nor receives: trees rooted at it and trees routing through any
// of its links are invalidated on failure; restoration invalidates all
// trees. Scoped domains invalidate all trees on any change (see
// SetLinkDown).
func (d *Domain) SetNodeDown(n model.NodeID, down bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.nodeDown == nil {
		if !down {
			return
		}
		d.nodeDown = make([]bool, len(d.net.Nodes))
	}
	if d.nodeDown[n] == down {
		return
	}
	d.nodeDown[n] = down
	if !down || d.scoped {
		clear(d.tables)
		return
	}
	incident := make(map[int32]bool)
	for _, lid := range d.net.Incident(n) {
		incident[int32(lid)] = true
	}
	for dst, t := range d.tables {
		if dst == n {
			delete(d.tables, dst)
			continue
		}
		for _, next := range t {
			if next >= 0 && incident[next] {
				delete(d.tables, dst)
				break
			}
		}
	}
}

func (d *Domain) computeAndStore(dst model.NodeID) []int32 {
	s := getScratch(len(d.net.Nodes))
	t := d.tree(dst, s)
	scratchPool.Put(s)
	d.mu.Lock()
	if existing, ok := d.tables[dst]; ok {
		d.mu.Unlock()
		return existing
	}
	d.tables[dst] = t
	d.mu.Unlock()
	return t
}

// tree computes the next-hop tree toward dst on scratch s, returns it as a
// fresh table indexed by slot, and leaves s reset.
func (d *Domain) tree(dst model.NodeID, s *scratch) []int32 {
	d.spt(dst, s)
	t := make([]int32, d.slots)
	if d.slot == nil {
		copy(t, s.next)
	} else {
		for i := range t {
			t[i] = -1
		}
		for _, v := range s.touched {
			if k := d.slot[v]; k >= 0 {
				t[k] = s.next[v]
			}
		}
	}
	s.reset()
	return t
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node model.NodeID
	dist int64
}

// scratch is one Dijkstra's working state, full length over the network.
// Between runs every entry is at rest (dist and next -1, done false); a run
// lists each node it writes in touched, so reset clears only those.
type scratch struct {
	dist    []int64
	next    []int32
	done    []bool
	q       []pqItem
	touched []model.NodeID
}

// scratchPool holds reset scratch for reuse across destinations, domains
// and networks.
var scratchPool sync.Pool

// getScratch returns reset scratch covering at least n nodes.
func getScratch(n int) *scratch {
	if s, _ := scratchPool.Get().(*scratch); s != nil && len(s.dist) >= n {
		return s
	}
	s := &scratch{dist: make([]int64, n), next: make([]int32, n), done: make([]bool, n)}
	for i := range n {
		s.dist[i] = -1
		s.next[i] = -1
	}
	return s
}

// reset returns every entry the last run wrote to rest.
func (s *scratch) reset() {
	for _, v := range s.touched {
		s.dist[v] = -1
		s.next[v] = -1
		s.done[v] = false
	}
	s.touched = s.touched[:0]
	s.q = s.q[:0]
}

// push and pop are container/heap's Push and Pop with its up and down
// inlined, line for line, on the concrete queue: equal-distance entries
// leave in container/heap's order, which decides equal-cost next hops.
func (s *scratch) push(it pqItem) {
	s.q = append(s.q, it)
	q := s.q
	j := len(q) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (s *scratch) pop() pqItem {
	q := s.q
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].dist < q[j1].dist {
			j = j2 // = 2*i + 2  // right child
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	it := q[n]
	s.q = q[:n]
	return it
}

// spt runs Dijkstra rooted at dst on reset scratch s and records, for every
// reachable member node, the first link on its shortest path toward dst in
// s.next along with the path latency in s.dist. Failed links and nodes are
// excluded; a tree rooted at a failed destination is all -1.
func (d *Domain) spt(dst model.NodeID, s *scratch) {
	if d.nodeDown != nil && d.nodeDown[dst] {
		return
	}
	adj := d.net.Adjacency()
	s.dist[dst] = 0
	s.touched = append(s.touched, dst)
	s.q = append(s.q, pqItem{dst, 0})
	for len(s.q) > 0 {
		it := s.pop()
		u := it.node
		if s.done[u] {
			continue
		}
		s.done[u] = true
		for _, lid := range adj[u] {
			if d.linkDown != nil && d.linkDown[lid] {
				continue
			}
			l := &d.net.Links[lid]
			v := l.Other(u)
			if !d.contains(v) || s.done[v] {
				continue
			}
			if d.nodeDown != nil && d.nodeDown[v] {
				continue
			}
			nd := it.dist + l.Latency
			if s.dist[v] < 0 || nd < s.dist[v] {
				if s.dist[v] < 0 {
					s.touched = append(s.touched, v)
				}
				s.dist[v] = nd
				s.next[v] = int32(lid) // v forwards toward dst over this link
				s.push(pqItem{v, nd})
			}
		}
	}
}
