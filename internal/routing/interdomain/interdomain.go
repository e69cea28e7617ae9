// Package interdomain combines per-AS OSPF domains with a converged BGP4
// RIB into a single hop-by-hop forwarding function for multi-AS networks —
// the routing substrate the paper's multi-AS experiments run on (Section 5).
// For single-AS networks it degenerates to plain OSPF.
//
// Forwarding rules:
//
//   - Intra-AS traffic follows the AS's OSPF shortest paths.
//   - In non-stub ASes, external traffic routes (OSPF) toward the border
//     router that terminates the BGP best route's next-hop adjacency, then
//     crosses the inter-AS link.
//   - In Stub ASes, internal routers carry default routes only (Section
//     5.1.2 step 6c: "use default routing to hosts outside local AS"):
//     external traffic flows to the AS's default border router, which exits
//     through its own inter-AS adjacencies — the BGP next hop when it
//     terminates locally, otherwise a provider uplink. This mirrors real
//     stub-AS operation, where the huge external BGP table is never
//     injected into OSPF.
//
// Stubs never transit traffic (their only export is their own prefix), so
// the mixed default-route/RIB forwarding above is loop-free.
package interdomain

import (
	"massf/internal/model"
	"massf/internal/routing/bgp"
	"massf/internal/routing/ospf"
)

// Router resolves next-hop forwarding decisions over a multi-AS network.
// It is complete when New returns: every AS's OSPF domain holds a tree
// toward each destination forwarding can read — the AS's hosts, the local
// borders of its neighbours and its default border — and nothing is
// written afterwards, so it is safe for concurrent use without a lock.
//
// A Router is an immutable snapshot of converged routing state. Topology
// change is modeled by Advance, which derives a NEW router reflecting the
// post-reconvergence state — the fault plane keeps one router per routing
// epoch and switches between them by simulated time.
type Router struct {
	net     *model.Network
	domains []*ospf.Domain
	rib     *bgp.RIB
	// sim is the live BGP state machine behind rib (nil for single-AS
	// networks); Advance clones it to replay session failures.
	sim *bgp.Simulator
	// linkDown/nodeDown mirror the failure state baked into the domains
	// and rib of this snapshot (nil ⇒ none failed). The domains Advance
	// derives keep them, so they are never written after it returns.
	linkDown []bool
	nodeDown []bool
}

// New converges BGP over net's AS graph and builds one OSPF domain per AS.
func New(net *model.Network) *Router { return build(net, nil) }

// NewScoped converges BGP like New but builds scoped OSPF domains that
// retain next-hop state only for the nodes marked in scope (a distributed
// worker's slice — full-length over net.Nodes). Forwarding decisions are
// byte-identical to New's: trees are still computed over every member of
// the AS, only the retained state shrinks from the AS's members to its
// in-scope members per destination: 4 bytes per in-scope member per
// destination. The BGP RIB stays global — it is O(AS²), not the memory
// whale the per-node OSPF trees are.
func NewScoped(net *model.Network, scope []bool) *Router { return build(net, scope) }

func build(net *model.Network, scope []bool) *Router {
	r := &Router{net: net, domains: make([]*ospf.Domain, len(net.ASes))}
	dests := make([][]model.NodeID, len(net.ASes))
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			as := net.Nodes[i].AS
			dests[as] = append(dests[as], model.NodeID(i))
		}
	}
	for i := range net.ASes {
		as := &net.ASes[i]
		for _, nb := range as.Neighbors {
			dests[i] = append(dests[i], nb.LocalBorder)
		}
		if as.DefaultBorder >= 0 {
			dests[i] = append(dests[i], as.DefaultBorder)
		}
		members := make([]model.NodeID, 0, len(as.Routers)+len(as.Hosts))
		members = append(members, as.Routers...)
		members = append(members, as.Hosts...)
		r.domains[i] = ospf.New(net, members, scope, dests[i])
	}
	if len(net.ASes) > 1 {
		r.sim = bgp.NewSimulator(net)
		for as := range net.ASes {
			r.sim.Announce(int32(as))
		}
		r.sim.Run()
		r.rib = r.sim.RIB()
	}
	return r
}

// TableBytes sums the heap bytes of the OSPF trees across all domains:
// 4 bytes per member of the tree's AS (per in-scope member on a scoped
// router) per destination.
func (r *Router) TableBytes() int64 {
	var total int64
	for _, d := range r.domains {
		total += d.TableBytes()
	}
	return total
}

// RIB exposes the converged BGP state (nil for single-AS networks).
func (r *Router) RIB() *bgp.RIB { return r.rib }

// NextLink returns the link on which cur forwards a packet destined to
// dst, or -1 if the packet should be dropped (no route — with BGP policy
// routing, connectivity does not equal reachability).
func (r *Router) NextLink(cur, dst model.NodeID) model.LinkID {
	if cur == dst {
		return -1
	}
	curNode := &r.net.Nodes[cur]
	dstAS := r.net.Nodes[dst].AS
	// Hosts have a single access link; everything leaves through it.
	if curNode.Kind == model.Host {
		inc := r.net.Incident(cur)
		if len(inc) == 0 {
			return -1
		}
		return inc[0]
	}
	if curNode.AS == dstAS {
		return r.domains[curNode.AS].NextLink(cur, dst)
	}
	as := &r.net.ASes[curNode.AS]
	if as.Class == model.ASStub && as.DefaultBorder >= 0 {
		return r.stubForward(as, cur, dstAS, dst)
	}
	return r.ribForward(as, cur, dstAS)
}

// ribForward routes toward the BGP best route's egress border.
func (r *Router) ribForward(as *model.AS, cur model.NodeID, dstAS int32) model.LinkID {
	if r.rib == nil {
		return -1
	}
	nh, ok := r.rib.NextHopAS(as.ID, dstAS)
	if !ok {
		return -1 // policy-unreachable
	}
	nb, ok := as.NeighborTo(nh)
	if !ok {
		return -1
	}
	if cur == nb.LocalBorder {
		return nb.Link
	}
	return r.domains[as.ID].NextLink(cur, nb.LocalBorder)
}

// stubForward implements default routing inside Stub ASes.
func (r *Router) stubForward(as *model.AS, cur model.NodeID, dstAS int32, dst model.NodeID) model.LinkID {
	if cur != as.DefaultBorder {
		return r.domains[as.ID].NextLink(cur, as.DefaultBorder)
	}
	// At the default border: exit through a local adjacency. Prefer the
	// RIB next hop when its link terminates here, then any provider
	// uplink, then any local adjacency whose neighbor AS has a route.
	var ribNH int32 = -1
	if r.rib != nil {
		if nh, ok := r.rib.NextHopAS(as.ID, dstAS); ok {
			ribNH = nh
		} else {
			return -1 // policy-unreachable even at AS level
		}
	}
	var provider, reachable model.LinkID = -1, -1
	for _, nb := range as.Neighbors {
		if nb.LocalBorder != cur {
			continue
		}
		if nb.AS == ribNH {
			return nb.Link
		}
		if nb.Rel == model.RelProvider && provider < 0 {
			provider = nb.Link
		}
		if r.rib != nil && reachable < 0 {
			if nb.AS == dstAS {
				reachable = nb.Link
			} else if _, ok := r.rib.NextHopAS(nb.AS, dstAS); ok && nb.Rel != model.RelPeer {
				reachable = nb.Link
			}
		}
	}
	if provider >= 0 {
		return provider
	}
	return reachable
}

// Change is one topology delta handed to Advance: a link or a node (the
// unused field is -1) going down or coming back up.
type Change struct {
	Link model.LinkID
	Node model.NodeID
	Down bool
}

// LinkChange builds a link up/down change.
func LinkChange(lid model.LinkID, down bool) Change {
	return Change{Link: lid, Node: -1, Down: down}
}

// NodeChange builds a node up/down change.
func NodeChange(n model.NodeID, down bool) Change {
	return Change{Link: -1, Node: n, Down: down}
}

// Advance derives the routing state after the given topology changes
// reconverge: the OSPF domains of the ASes the changes touch recompute the
// trees the failed or restored elements could stale, and BGP sessions
// whose underlying link or border router changed state are torn down or
// re-established, with the resulting withdrawal/re-announcement storm run
// to quiescence. It returns the new immutable router and the number of BGP
// update messages the storm exchanged (the convergence-work measure). The
// receiver is untouched; unaffected state — whole domains, and the trees
// of an affected domain the changes left valid — is shared between the two
// snapshots.
func (r *Router) Advance(changes []Change) (*Router, int) {
	if len(changes) == 0 {
		return r, 0
	}
	nr := &Router{
		net:     r.net,
		domains: append([]*ospf.Domain(nil), r.domains...),
		rib:     r.rib,
		sim:     r.sim,
		linkDown: append(make([]bool, 0, len(r.net.Links)),
			r.maskOrZero(r.linkDown, len(r.net.Links))...),
		nodeDown: append(make([]bool, 0, len(r.net.Nodes)),
			r.maskOrZero(r.nodeDown, len(r.net.Nodes))...),
	}
	// Apply intra-AS (OSPF) consequences, deriving only affected domains.
	affected := make([]bool, len(r.net.ASes))
	for _, ch := range changes {
		if ch.Link >= 0 {
			nr.linkDown[ch.Link] = ch.Down
			l := &r.net.Links[ch.Link]
			if a, b := r.net.Nodes[l.A].AS, r.net.Nodes[l.B].AS; a == b {
				affected[a] = true
			}
		}
		if ch.Node >= 0 {
			nr.nodeDown[ch.Node] = ch.Down
			affected[r.net.Nodes[ch.Node].AS] = true
		}
	}
	for as, hit := range affected {
		if hit {
			nr.domains[as] = r.domains[as].Advance(nr.linkDown, nr.nodeDown)
		}
	}
	// Apply inter-AS (BGP) consequences: a session is up iff its link and
	// both border routers are. Compare old vs new status for adjacencies
	// touching the changed elements and replay the flips on a cloned
	// simulator.
	msgs := 0
	if r.sim != nil {
		type flip struct {
			a, b int32
			down bool
		}
		var flips []flip
		seen := make(map[[2]int32]bool)
		for i := range r.net.ASes {
			as := &r.net.ASes[i]
			for _, nb := range as.Neighbors {
				key := [2]int32{min(as.ID, nb.AS), max(as.ID, nb.AS)}
				if seen[key] {
					continue
				}
				seen[key] = true
				was := r.sessionDown(nb)
				now := nr.sessionDown(nb)
				if was != now {
					flips = append(flips, flip{as.ID, nb.AS, now})
				}
			}
		}
		if len(flips) > 0 {
			sim := r.sim.Clone()
			for _, f := range flips {
				if f.down {
					sim.SessionDown(f.a, f.b)
				} else {
					sim.SessionUp(f.a, f.b)
				}
			}
			msgs = sim.Run()
			nr.sim = sim
			nr.rib = sim.RIB()
		}
	}
	return nr, msgs
}

// sessionDown reports whether adjacency nb is failed under this snapshot's
// masks: its inter-AS link down or either border router down.
func (r *Router) sessionDown(nb model.ASNeighbor) bool {
	if r.linkDown != nil && r.linkDown[nb.Link] {
		return true
	}
	if r.nodeDown != nil && (r.nodeDown[nb.LocalBorder] || r.nodeDown[nb.RemoteBorder]) {
		return true
	}
	return false
}

// maskOrZero returns mask, or a fresh all-false mask of length n when nil.
func (r *Router) maskOrZero(mask []bool, n int) []bool {
	if mask != nil {
		return mask
	}
	return make([]bool, n)
}
