// Package ospf implements shortest-path intra-domain routing over the
// virtual network — the paper's flat OSPF routing for single-AS networks
// and the interior gateway protocol inside every AS of a multi-AS network.
//
// Routing state is organized per destination: a Dijkstra shortest-path tree
// rooted at the destination gives every member node its next-hop link
// toward it. Trees are computed lazily and cached (a 20,000-router network
// never needs all 400M pairs, only the destinations traffic actually
// targets), using link latency as the OSPF cost metric.
//
// A domain may additionally be scoped to a node subset (a distributed
// worker's slice): lookups still run the full-network Dijkstra, so routes
// and tie-breaking are byte-identical to an unscoped domain, but the cached
// tree keeps entries only for in-scope nodes — O(scope) per destination
// instead of O(network), which is what makes 100k-router slices fit.
package ospf

import (
	"container/heap"
	"fmt"
	"sync"

	"massf/internal/model"
)

// Domain is one OSPF routing domain: a set of member nodes within which
// shortest paths are computed. Links with both endpoints inside the member
// set are part of the domain.
type Domain struct {
	net     *model.Network
	members []bool // nil ⇒ every node is a member

	// scope, when non-nil, restricts which nodes' next-hop entries are
	// retained. Shortest-path trees are still computed over the full
	// member set (identical costs and tie-breaking), then compacted to
	// the scoped nodes. A slice-local worker only ever forwards from
	// nodes it owns, so an out-of-scope lookup is a partitioning bug and
	// panics rather than silently misrouting.
	scope    []bool
	scopeIdx []int32 // node id → compact index; -1 out of scope
	scopeLen int

	// linkDown/nodeDown mark failed elements SPF must route around
	// (nil ⇒ none). Mutated only via SetLinkDown/SetNodeDown, which also
	// invalidate any cached trees the change could stale.
	linkDown []bool
	nodeDown []bool

	mu sync.RWMutex
	// tables caches one next-hop tree per destination. Unscoped: indexed by
	// node id, full length. Scoped: indexed by scopeIdx, scopeLen long —
	// exactly 4 bytes per owned node per destination, the whole point of
	// the slice build.
	tables map[model.NodeID][]int32
}

// NewDomain creates a domain over the given member nodes. A nil or empty
// members slice means the whole network is one domain (the single-AS case).
func NewDomain(net *model.Network, members []model.NodeID) *Domain {
	d := &Domain{net: net, tables: make(map[model.NodeID][]int32)}
	if len(members) > 0 {
		d.members = make([]bool, len(net.Nodes))
		for _, m := range members {
			d.members[m] = true
		}
	}
	return d
}

// NewDomainScoped creates a domain like NewDomain but retaining next-hop
// state only for nodes marked in scope (full-length over net.Nodes). A nil
// scope is equivalent to NewDomain.
func NewDomainScoped(net *model.Network, members []model.NodeID, scope []bool) *Domain {
	d := NewDomain(net, members)
	d.setScope(scope)
	return d
}

func (d *Domain) setScope(scope []bool) {
	if scope == nil {
		return
	}
	d.scope = scope
	d.scopeIdx = make([]int32, len(d.net.Nodes))
	for i := range d.scopeIdx {
		d.scopeIdx[i] = -1
	}
	for i, in := range scope {
		if in {
			d.scopeIdx[i] = int32(d.scopeLen)
			d.scopeLen++
		}
	}
}

// Scoped reports whether the domain retains only slice-local state.
func (d *Domain) Scoped() bool { return d.scope != nil }

// contains reports whether node n belongs to the domain.
func (d *Domain) contains(n model.NodeID) bool {
	return d.members == nil || d.members[n]
}

// scopeIndex maps cur to its compact table index, panicking on nodes
// outside the slice scope: only owned nodes forward on a sliced worker.
func (d *Domain) scopeIndex(cur model.NodeID) int32 {
	idx := d.scopeIdx[cur]
	if idx < 0 {
		panic(fmt.Sprintf("ospf: lookup from node %d outside the domain's slice scope", cur))
	}
	return idx
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
	if d.scope != nil {
		return model.LinkID(t[d.scopeIndex(cur)])
	}
	return model.LinkID(t[cur])
}

// Distance returns the shortest-path latency (ns) from cur to dst within
// the domain, or -1 if unreachable. A diagnostic/test query, not a hot
// path: on a scoped domain the compacted tree cannot be walked past the
// scope edge, so a fresh full-length tree is computed and discarded rather
// than retained.
func (d *Domain) Distance(cur, dst model.NodeID) int64 {
	if !d.contains(cur) || !d.contains(dst) {
		return -1
	}
	if cur == dst {
		return 0
	}
	var t []int32
	if d.scope != nil {
		t, _ = d.spt(dst)
	} else {
		d.mu.RLock()
		var ok bool
		t, ok = d.tables[dst]
		d.mu.RUnlock()
		if !ok {
			t = d.computeAndStore(dst)
		}
	}
	// Walk the tree summing latencies.
	var total int64
	for cur != dst {
		lid := t[cur]
		if lid < 0 {
			return -1
		}
		l := &d.net.Links[lid]
		total += l.Latency
		cur = l.Other(cur)
	}
	return total
}

// Prepare precomputes shortest-path trees for the given destinations. Call
// during setup so the simulation's hot path only reads.
func (d *Domain) Prepare(dests []model.NodeID) {
	for _, dst := range dests {
		if !d.contains(dst) {
			continue
		}
		d.mu.RLock()
		_, ok := d.tables[dst]
		d.mu.RUnlock()
		if !ok {
			d.computeAndStore(dst)
		}
	}
}

// CachedTables reports how many destination trees are cached.
func (d *Domain) CachedTables() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.tables)
}

// TableBytes reports the approximate heap bytes held by cached trees — the
// quantity the slice refactor shrinks from O(network) to O(scope) per
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
// network, member set, and scope but owning its cached tables and failure
// masks, so SetLinkDown/SetNodeDown on the clone never disturb the
// original. The cached table slices themselves are shared — they are never
// mutated after computation, only replaced.
func (d *Domain) Clone() *Domain {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c := &Domain{
		net:      d.net,
		members:  d.members,
		scope:    d.scope,
		scopeIdx: d.scopeIdx,
		scopeLen: d.scopeLen,
		tables:   make(map[model.NodeID][]int32, len(d.tables)),
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
	if !down || d.scope != nil {
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
	if !down || d.scope != nil {
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
	t, _ := d.spt(dst)
	if d.scope != nil {
		// Compact to the scoped nodes; the full-length tree is discarded.
		cn := make([]int32, d.scopeLen)
		for id, idx := range d.scopeIdx {
			if idx >= 0 {
				cn[idx] = t[id]
			}
		}
		t = cn
	}
	d.mu.Lock()
	if existing, ok := d.tables[dst]; ok {
		d.mu.Unlock()
		return existing
	}
	d.tables[dst] = t
	d.mu.Unlock()
	return t
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node model.NodeID
	dist int64
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// spt runs Dijkstra rooted at dst and records, for every reachable member
// node, the first link on its shortest path toward dst along with the path
// latency. Failed links and nodes are excluded; a tree rooted at a failed
// destination is all -1.
func (d *Domain) spt(dst model.NodeID) ([]int32, []int64) {
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
	q := pq{{dst, 0}}
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
				next[v] = int32(lid) // v forwards toward dst over this link
				heap.Push(&q, pqItem{v, nd})
			}
		}
	}
	return next, dist
}
