// Package ospf implements shortest-path intra-domain routing over the
// virtual network — the paper's flat OSPF routing for single-AS networks
// and the interior gateway protocol inside every AS of a multi-AS network.
//
// Routing state is organized per destination: a Dijkstra shortest-path tree
// rooted at the destination gives every member node its next-hop link
// toward it, using link latency as the OSPF cost metric. A domain is built
// for a fixed destination list (a 20,000-router network never needs all
// 400M pairs, only the trees toward the destinations traffic targets) and
// computes every tree at construction; afterwards it is never written, so
// lookups take no lock. A tree holds one entry per member of the domain —
// O(domain) per destination, so an AS's tables do not grow with the rest
// of the network. Topology change derives a new domain (Advance) that
// recomputes the trees the change could stale and shares the rest.
//
// A domain may additionally be scoped to a node subset (a distributed
// worker's slice): trees are still computed over every member, so routes
// and tie-breaking are byte-identical to an unscoped domain, but each tree
// keeps entries only for in-scope members — O(scope) per destination,
// which is what makes 100k-router slices fit.
//
// Where v has several shortest paths toward dst, one rule picks its link.
// Among the links on v's shortest paths toward dst, v forwards over the
// link to the neighbour nearest dst, and among equally near neighbours
// over the lowest link id: the least (dist[w], link id) over links (v, w)
// with dist[w] + latency = dist[v]. The rule reads only distances and link
// ids, so a route is a function of the network and its failures, not of
// the queue that computed it.
//
// Dijkstra's queue is a monotone bucket queue: a ring of slots, each as
// wide as a fixed share of the domain's largest link latency, so every
// queued distance falls within one lap of it. A pop takes the least
// distance of the first occupied slot. Every member-link latency must be
// positive; New panics, naming the link, otherwise.
package ospf

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"massf/internal/model"
	"massf/internal/parallel"
)

// Domain is one OSPF routing domain: a set of member nodes within which
// shortest paths are computed, with a next-hop tree toward each of its
// destinations. Links with both endpoints inside the member set are part
// of the domain. A Domain is immutable once New or Advance returns it.
type Domain struct {
	net *model.Network

	// scoped marks a domain whose trees keep entries only for the nodes of
	// a worker's slice. A slice-local worker only ever forwards from nodes
	// it owns, so an out-of-scope lookup is a partitioning bug and panics
	// rather than silently misrouting.
	scoped bool

	// pos maps a node id to its position among the members: in-scope
	// members first, in id order, then out-of-scope ones; notMember marks
	// the rest. A position below slots is the node's row in every tree.
	// nil means identity: every node is a member and none is out of scope.
	pos   []int32
	slots int

	// dests lists the destinations in ascending id order; tables[c] is the
	// tree toward dests[c], and col maps a member's position to its column
	// (-1: no tree). Every tree is slots long: exactly 4 bytes per row per
	// destination. Trees are never written once computed, so a derived
	// domain shares the ones its change left valid.
	dests  []model.NodeID
	col    []int32
	tables [][]int32

	// linkDown/nodeDown mark the failed elements SPF routes around, full
	// length over the network (nil ⇒ none); shared, never written.
	linkDown []bool
	nodeDown []bool

	// shift sets the bucket queue's slot width to 2^shift ns, fixed by the
	// largest member-link latency.
	shift int
}

// notMember is the position of a node outside the domain.
const notMember = -1

// New builds the domain over the given member nodes — nil or empty means
// the whole network is one domain (the single-AS case) — and computes its
// tree toward every member listed in dests (duplicates and non-members
// are dropped). A non-nil scope (full length over net.Nodes) keeps tree
// entries only for the members marked in scope. The trees are computed
// concurrently, each into its own column, so they do not depend on
// scheduling.
func New(net *model.Network, members []model.NodeID, scope []bool, dests []model.NodeID) *Domain {
	n := len(net.Nodes)
	d := &Domain{net: net, scoped: scope != nil, slots: n}
	positions := n
	if len(members) > 0 || scope != nil {
		const pending = -2 // a member, not yet numbered
		rest := int32(pending)
		if len(members) > 0 {
			rest = notMember
		}
		pos := make([]int32, n)
		for i := range pos {
			pos[i] = rest
		}
		for _, m := range members {
			pos[m] = pending
		}
		next := int32(0)
		for _, inScope := range []bool{true, false} {
			for i, p := range pos {
				if p == pending && (scope == nil || scope[i]) == inScope {
					pos[i] = next
					next++
				}
			}
			if inScope {
				d.slots = int(next)
			}
		}
		if d.slots < n {
			d.pos, positions = pos, int(next)
		}
	}
	d.dests = slices.DeleteFunc(slices.Clone(dests), func(n model.NodeID) bool { return !d.contains(n) })
	slices.Sort(d.dests)
	d.dests = slices.Compact(d.dests)
	d.col = make([]int32, positions)
	for i := range d.col {
		d.col[i] = -1
	}
	for c, dst := range d.dests {
		d.col[d.position(dst)] = int32(c)
	}
	d.shift = d.slotShift()
	d.tables = make([][]int32, len(d.dests))
	cols := make([]int, len(d.dests))
	for c := range cols {
		cols[c] = c
	}
	d.fill(cols)
	return d
}

// slotShift returns the least shift that fits the largest member-link
// latency into maxSpan slots. It panics on a member link whose latency is
// not positive: a zero-cost hop would reach a node at the distance it
// leaves, which the queue's order and the equal-cost rule both assume
// away.
func (d *Domain) slotShift() int {
	var widest int64
	for i := range d.net.Links {
		l := &d.net.Links[i]
		if !d.contains(l.A) || !d.contains(l.B) {
			continue
		}
		if l.Latency <= 0 {
			panic(fmt.Sprintf("ospf: member link %d has latency %d ns; link costs must be positive", i, l.Latency))
		}
		widest = max(widest, l.Latency)
	}
	shift := 0
	for widest>>shift > maxSpan {
		shift++
	}
	return shift
}

// position returns member n's position (notMember outside the domain).
func (d *Domain) position(n model.NodeID) int32 {
	if d.pos == nil {
		return int32(n)
	}
	return d.pos[n]
}

// contains reports whether node n belongs to the domain.
func (d *Domain) contains(n model.NodeID) bool { return d.position(n) >= 0 }

// NextLink returns the link on which cur forwards a packet destined to dst,
// or -1 if cur has no route (outside domain, disconnected, or cur == dst).
// It panics when dst is a member the domain has no tree toward, or, on a
// scoped domain, when cur is out of scope: only owned nodes forward on a
// sliced worker.
func (d *Domain) NextLink(cur, dst model.NodeID) model.LinkID {
	if cur == dst {
		return -1
	}
	pc, pd := d.position(cur), d.position(dst)
	if pc < 0 || pd < 0 {
		return -1
	}
	c := d.col[pd]
	if c < 0 {
		panic(fmt.Sprintf("ospf: lookup toward node %d, which is not a destination of the domain", dst))
	}
	if int(pc) >= d.slots {
		panic(fmt.Sprintf("ospf: lookup from node %d outside the domain's slice scope", cur))
	}
	return model.LinkID(d.tables[c][pc])
}

// TableBytes reports the heap bytes held by the trees: 4 bytes per member
// (per in-scope member on a scoped domain) per destination.
func (d *Domain) TableBytes() int64 { return 4 * int64(d.slots) * int64(len(d.tables)) }

// Advance derives the domain with linkDown and nodeDown failed (full
// length over the network, nil ⇒ none; the derived domain keeps them, so
// they must not be written afterwards). It recomputes every tree the
// difference from d's failures could stale and shares the rest with d,
// which is untouched:
//   - a member link going down stales the trees that route over it;
//   - a member node going down stales the trees that use its links — its
//     own tree among them, as every member reaching it uses one;
//   - any restoration stales every tree, since any of them might now have
//     a shorter path through the revived element, and so does any change
//     on a scoped domain, because a compacted tree cannot prove the failed
//     element absent from the out-of-scope part of a path.
func (d *Domain) Advance(linkDown, nodeDown []bool) *Domain {
	nd := *d
	nd.linkDown, nd.nodeDown = linkDown, nodeDown
	nd.tables = slices.Clone(d.tables)
	hit := make([]bool, len(d.net.Links)) // links no valid tree routes over
	all := false
	for lid := range d.net.Links {
		l := &d.net.Links[lid]
		if failed(d.linkDown, lid) == failed(linkDown, lid) || !d.contains(l.A) || !d.contains(l.B) {
			continue
		}
		hit[lid] = true
		all = all || d.scoped || !failed(linkDown, lid)
	}
	for n := range d.net.Nodes {
		if failed(d.nodeDown, n) == failed(nodeDown, n) || !d.contains(model.NodeID(n)) {
			continue
		}
		for _, lid := range d.net.Incident(model.NodeID(n)) {
			hit[lid] = true
		}
		all = all || d.scoped || !failed(nodeDown, n)
	}
	var cols []int
	for c, t := range d.tables {
		if all || slices.ContainsFunc(t, func(next int32) bool { return next >= 0 && hit[next] }) {
			cols = append(cols, c)
		}
	}
	nd.fill(cols)
	return &nd
}

// failed reports whether element i is marked in mask (nil ⇒ none).
func failed(mask []bool, i int) bool { return mask != nil && mask[i] }

// fill computes the tree of each listed column into d.tables on up to
// GOMAXPROCS goroutines. Each tree lands in its own column, so the result
// does not depend on scheduling.
func (d *Domain) fill(cols []int) {
	if len(cols) == 0 {
		return
	}
	var claimed atomic.Int64
	parallel.Run(len(cols), func(stopped func() bool) {
		s := getScratch(len(d.net.Nodes))
		for i := claimed.Add(1) - 1; i < int64(len(cols)) && !stopped(); i = claimed.Add(1) - 1 {
			c := cols[i]
			d.tables[c] = d.tree(d.dests[c], s)
		}
		scratchPool.Put(s)
	})
}

// tree computes the next-hop tree toward dst on scratch s, returns it as a
// fresh table indexed by row, and leaves s reset.
func (d *Domain) tree(dst model.NodeID, s *scratch) []int32 {
	d.spt(dst, s)
	t := make([]int32, d.slots)
	if d.pos == nil {
		copy(t, s.next)
	} else {
		for i := range t {
			t[i] = -1
		}
		for _, v := range s.touched {
			if k := d.pos[v]; k >= 0 && int(k) < d.slots {
				t[k] = s.next[v]
			}
		}
	}
	s.reset()
	return t
}

// The bucket queue's ring: ringSlots slots, a queued distance in slot
// (dist >> shift) mod ringSlots. Every queued distance lies within one
// link latency of the last one popped, and that latency spans at most
// maxSpan slot widths, so the queue's distances fall in at most
// maxSpan+2 ≤ ringSlots consecutive slots: no slot holds two laps.
const (
	ringSlots = 4096
	ringMask  = ringSlots - 1
	maxSpan   = ringSlots - 2
)

// scratch is one Dijkstra's working state, full length over the network.
// Between runs every entry is at rest (dist and next -1, no slot
// occupied); a run lists each node it writes in touched, so reset clears
// only those.
type scratch struct {
	dist    []int64
	next    []int32
	touched []model.NodeID

	// The bucket queue holds each queued node once, in the doubly linked
	// list of its slot threaded through before/after (-1 ends a list);
	// head is a slot's first node where occupied marks it non-empty.
	// cur is the slot of the last pop and queued the nodes in the ring.
	before, after []int32
	head          [ringSlots]int32
	occupied      [ringSlots / 64]uint64
	shift, cur    int
	queued        int
}

// scratchPool holds reset scratch for reuse across destinations, domains
// and networks.
var scratchPool sync.Pool

// getScratch returns reset scratch covering at least n nodes.
func getScratch(n int) *scratch {
	if s, _ := scratchPool.Get().(*scratch); s != nil && len(s.dist) >= n {
		return s
	}
	s := &scratch{dist: make([]int64, n), next: make([]int32, n), before: make([]int32, n), after: make([]int32, n)}
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
	}
	s.touched = s.touched[:0]
	if s.queued > 0 {
		s.occupied = [ringSlots / 64]uint64{}
		s.queued = 0
	}
}

// enqueue queues v at distance nd, which lowers its distance from old
// (-1: v was not queued).
func (s *scratch) enqueue(v model.NodeID, old, nd int64) {
	i := int(nd>>s.shift) & ringMask
	if old >= 0 {
		j := int(old>>s.shift) & ringMask
		if i == j {
			return
		}
		s.unlink(v, j)
	} else {
		s.queued++
	}
	s.before[v] = -1
	if s.occupied[i>>6]&(1<<(i&63)) == 0 {
		s.occupied[i>>6] |= 1 << (i & 63)
		s.after[v] = -1
	} else {
		h := s.head[i]
		s.after[v] = h
		s.before[h] = int32(v)
	}
	s.head[i] = int32(v)
}

// unlink takes v out of slot i's list.
func (s *scratch) unlink(v model.NodeID, i int) {
	b, a := s.before[v], s.after[v]
	if b >= 0 {
		s.after[b] = a
	} else if a >= 0 {
		s.head[i] = a
	} else {
		s.occupied[i>>6] &^= 1 << (i & 63)
	}
	if a >= 0 {
		s.before[a] = b
	}
}

// dequeue removes and returns a queued node of least distance, or -1 once
// the queue is empty.
func (s *scratch) dequeue() model.NodeID {
	if s.queued == 0 {
		return -1
	}
	// The first occupied slot from cur on; the scan wraps to cur's word.
	w := s.cur >> 6
	word := s.occupied[w] &^ (1<<(s.cur&63) - 1)
	for word == 0 {
		w = (w + 1) & (len(s.occupied) - 1)
		word = s.occupied[w]
	}
	s.cur = w<<6 | bits.TrailingZeros64(word)
	best := model.NodeID(s.head[s.cur])
	for v := s.after[best]; v >= 0; v = s.after[v] {
		if s.dist[v] < s.dist[best] {
			best = model.NodeID(v)
		}
	}
	s.unlink(best, s.cur)
	s.queued--
	return best
}

// spt runs Dijkstra rooted at dst on reset scratch s and records, for
// every reachable member node, its path latency to dst in s.dist and the
// link the equal-cost rule gives it in s.next. Failed links and nodes are
// excluded; a tree rooted at a failed destination is all -1.
//
// The queue pops in distance order, so v's shortest-path neighbours relax
// it nearest first: the first of them sets v's link, and a later one
// replaces it only when it is as near to dst and its link id is lower. A
// popped node's distance is final, and a relaxation never lowers it, as
// every latency is positive.
func (d *Domain) spt(dst model.NodeID, s *scratch) {
	if d.nodeDown != nil && d.nodeDown[dst] {
		return
	}
	adj := d.net.Adjacency()
	s.shift, s.cur = d.shift, 0
	s.dist[dst] = 0
	s.touched = append(s.touched, dst)
	s.enqueue(dst, -1, 0)
	for u := s.dequeue(); u >= 0; u = s.dequeue() {
		du := s.dist[u]
		for _, lid := range adj[u] {
			if d.linkDown != nil && d.linkDown[lid] {
				continue
			}
			l := &d.net.Links[lid]
			v := l.Other(u)
			if !d.contains(v) || d.nodeDown != nil && d.nodeDown[v] {
				continue
			}
			nd := du + l.Latency
			if old := s.dist[v]; old < 0 || nd < old {
				if old < 0 {
					s.touched = append(s.touched, v)
				}
				s.dist[v] = nd
				s.next[v] = int32(lid) // v forwards toward dst over this link
				s.enqueue(v, old, nd)
			} else if nd == old && int32(lid) < s.next[v] && s.dist[d.net.Links[s.next[v]].Other(v)] == du {
				s.next[v] = int32(lid) // as near to dst as v's setter, lower id
			}
		}
	}
}
