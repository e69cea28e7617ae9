// Package model defines the virtual network description shared by the
// topology generators, the routing protocols, the packet simulator, and the
// load balance machinery: nodes (routers and hosts) placed on a geographic
// plane, links with latency and bandwidth, and the autonomous-system
// structure with business relationships that drives BGP policy routing.
package model

import (
	"fmt"
	"math"
	"sync/atomic"
)

// NodeKind distinguishes routers from end hosts.
type NodeKind uint8

// Node kinds.
const (
	Router NodeKind = iota
	Host
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	if k == Router {
		return "router"
	}
	return "host"
}

// NodeID indexes Network.Nodes.
type NodeID int32

// Node is a router or host in the virtual network. X and Y are coordinates
// in miles on the generator's plane (the paper uses 5000 mi × 5000 mi,
// roughly North America).
type Node struct {
	ID   NodeID
	Kind NodeKind
	AS   int32 // owning AS; 0 in single-AS networks
	X, Y float64
}

// LinkID indexes Network.Links.
type LinkID int32

// Link is a bidirectional point-to-point link. Latency is the one-way
// propagation delay in nanoseconds; Bandwidth is in bits per second.
type Link struct {
	ID        LinkID
	A, B      NodeID
	Latency   int64
	Bandwidth int64
}

// Other returns the endpoint of l that is not n.
func (l *Link) Other(n NodeID) NodeID {
	if l.A == n {
		return l.B
	}
	return l.A
}

// ASClass is the Internet-hierarchy category of an AS (Section 5.1.2 of the
// paper classifies by connection degree).
type ASClass uint8

// AS classes.
const (
	ASStub ASClass = iota // degree 1–2, ≈90% of ASes ("Customers")
	ASRegional
	ASCore // top-degree ASes; form a clique (the "Dense Core")
)

// String implements fmt.Stringer.
func (c ASClass) String() string {
	switch c {
	case ASStub:
		return "stub"
	case ASRegional:
		return "regional"
	case ASCore:
		return "core"
	default:
		return fmt.Sprintf("ASClass(%d)", uint8(c))
	}
}

// Relationship is the commercial relationship from one AS toward a neighbor.
type Relationship uint8

// Relationships, named from the local AS's point of view.
const (
	RelProvider Relationship = iota // the neighbor is my provider
	RelCustomer                     // the neighbor is my customer
	RelPeer                         // we are peers
)

// String implements fmt.Stringer.
func (r Relationship) String() string {
	switch r {
	case RelProvider:
		return "provider"
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	default:
		return fmt.Sprintf("Relationship(%d)", uint8(r))
	}
}

// ASNeighbor records one AS-level adjacency with its relationship and the
// border routers that realize it.
type ASNeighbor struct {
	AS  int32
	Rel Relationship
	// LocalBorder and RemoteBorder are the routers terminating the
	// inter-AS link.
	LocalBorder, RemoteBorder NodeID
	Link                      LinkID
}

// AS describes one autonomous system.
type AS struct {
	ID        int32
	Class     ASClass
	Routers   []NodeID
	Hosts     []NodeID
	Neighbors []ASNeighbor
	// DefaultBorder is the border router Stub-AS internal routers default
	// route through (Section 5.1.2 step 6c/6d). -1 when unset.
	DefaultBorder NodeID
}

// Network is the complete virtual network. Adjacency is derived and cached.
type Network struct {
	Nodes []Node
	Links []Link
	// ASes is indexed by AS id. Single-AS networks have exactly one entry.
	ASes []AS

	// incident is the lazily built index of the links touching each node.
	// Routing's parallel tree builders may be its first readers, several
	// at once, so it is published atomically.
	incident atomic.Pointer[[][]LinkID]
}

// NumRouters counts router nodes.
func (n *Network) NumRouters() int {
	c := 0
	for i := range n.Nodes {
		if n.Nodes[i].Kind == Router {
			c++
		}
	}
	return c
}

// NumHosts counts host nodes.
func (n *Network) NumHosts() int { return len(n.Nodes) - n.NumRouters() }

// AddNode appends a node and returns its id.
func (n *Network) AddNode(kind NodeKind, as int32, x, y float64) NodeID {
	id := NodeID(len(n.Nodes))
	n.Nodes = append(n.Nodes, Node{ID: id, Kind: kind, AS: as, X: x, Y: y})
	n.incident.Store(nil)
	return id
}

// AddLink appends a link and returns its id. It panics on a self link.
func (n *Network) AddLink(a, b NodeID, latency, bandwidth int64) LinkID {
	if a == b {
		panic(fmt.Sprintf("model: self link at node %d", a))
	}
	id := LinkID(len(n.Links))
	n.Links = append(n.Links, Link{ID: id, A: a, B: b, Latency: latency, Bandwidth: bandwidth})
	n.incident.Store(nil)
	return id
}

// Incident returns the links touching node id. The slice is shared; treat
// it as read-only.
func (n *Network) Incident(id NodeID) []LinkID { return n.Adjacency()[id] }

// Adjacency returns the whole incidence index — Adjacency()[id] is
// Incident(id) — for loops that visit many nodes. Shared; read-only.
func (n *Network) Adjacency() [][]LinkID {
	if inc := n.incident.Load(); inc != nil {
		return *inc
	}
	// Concurrent first readers each build the same index; every copy is
	// equal, so it does not matter whose store lands last.
	built := make([][]LinkID, len(n.Nodes))
	for i := range n.Links {
		l := &n.Links[i]
		built[l.A] = append(built[l.A], l.ID)
		built[l.B] = append(built[l.B], l.ID)
	}
	n.incident.Store(&built)
	return built
}

// Neighbors returns the node ids adjacent to id.
func (n *Network) Neighbors(id NodeID) []NodeID {
	links := n.Incident(id)
	out := make([]NodeID, len(links))
	for i, lid := range links {
		out[i] = n.Links[lid].Other(id)
	}
	return out
}

// Validate checks structural invariants: link endpoints in range, AS router
// lists consistent with node AS tags, relationships symmetric
// (provider↔customer, peer↔peer).
func (n *Network) Validate() error {
	for i := range n.Links {
		l := &n.Links[i]
		if l.A < 0 || int(l.A) >= len(n.Nodes) || l.B < 0 || int(l.B) >= len(n.Nodes) {
			return fmt.Errorf("model: link %d endpoint out of range", i)
		}
		if l.Latency <= 0 {
			return fmt.Errorf("model: link %d has non-positive latency %d", i, l.Latency)
		}
		if l.Bandwidth <= 0 {
			return fmt.Errorf("model: link %d has non-positive bandwidth %d", i, l.Bandwidth)
		}
	}
	for asid := range n.ASes {
		as := &n.ASes[asid]
		if int(as.ID) != asid {
			return fmt.Errorf("model: AS %d stored at index %d", as.ID, asid)
		}
		for _, r := range as.Routers {
			if n.Nodes[r].AS != as.ID {
				return fmt.Errorf("model: router %d listed in AS %d but tagged AS %d", r, as.ID, n.Nodes[r].AS)
			}
			if n.Nodes[r].Kind != Router {
				return fmt.Errorf("model: node %d in AS %d router list is a %v", r, as.ID, n.Nodes[r].Kind)
			}
		}
		for _, nb := range as.Neighbors {
			if int(nb.AS) < 0 || int(nb.AS) >= len(n.ASes) {
				return fmt.Errorf("model: AS %d has out-of-range neighbor %d", as.ID, nb.AS)
			}
			rev, ok := n.ASes[nb.AS].neighborTo(as.ID)
			if !ok {
				return fmt.Errorf("model: AS %d → %d adjacency not mirrored", as.ID, nb.AS)
			}
			want := map[Relationship]Relationship{
				RelProvider: RelCustomer,
				RelCustomer: RelProvider,
				RelPeer:     RelPeer,
			}[nb.Rel]
			if rev.Rel != want {
				return fmt.Errorf("model: AS %d sees %d as %v but %d sees %d as %v",
					as.ID, nb.AS, nb.Rel, nb.AS, as.ID, rev.Rel)
			}
		}
	}
	return nil
}

func (as *AS) neighborTo(other int32) (ASNeighbor, bool) {
	for _, nb := range as.Neighbors {
		if nb.AS == other {
			return nb, true
		}
	}
	return ASNeighbor{}, false
}

// NeighborTo returns the adjacency record toward AS other, if any.
func (as *AS) NeighborTo(other int32) (ASNeighbor, bool) { return as.neighborTo(other) }

// Geographic constants: signal propagation in fiber is about 2/3 of c.
// c ≈ 186,282 mi/s, so fiber speed ≈ 124,188 mi/s ≈ 8.05 µs per mile.
const (
	// NSPerMile is the one-way propagation delay per mile of fiber, ns.
	NSPerMile = 8052.0
	// PlaneMiles is the side of the paper's geographic square.
	PlaneMiles = 5000.0
)

// Distance returns the Euclidean distance in miles between nodes a and b.
func (n *Network) Distance(a, b NodeID) float64 {
	dx := n.Nodes[a].X - n.Nodes[b].X
	dy := n.Nodes[a].Y - n.Nodes[b].Y
	return math.Sqrt(dx*dx + dy*dy)
}

// LatencyForDistance converts a distance in miles to a propagation delay in
// nanoseconds, with a floor of 10 µs modeling equipment and short-haul
// delay so that co-located nodes never yield zero-latency links.
func LatencyForDistance(miles float64) int64 {
	lat := int64(miles * NSPerMile)
	const floor = 10_000 // 10 µs
	if lat < floor {
		return floor
	}
	return lat
}

// Bandwidth tiers in bits per second, used by the generators.
const (
	Bps100M = 100_000_000
	Bps1G   = 1_000_000_000
	Bps10G  = 10_000_000_000
)
