// Package graph provides the weighted undirected graph used by the load
// balance machinery: the virtual network is converted into a Graph whose
// node weights estimate simulation load and whose edge weights encode the
// reluctance to cut a link (Section 3.2 of the paper). The package also
// implements the contraction ("dumped graph" G_d) operation at the heart of
// the hierarchical approaches (Section 3.4.3): all edges whose link latency
// falls below a threshold are collapsed, guaranteeing a worst-case minimum
// link latency across any partition of the contracted graph.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Edge is one endpoint record in an adjacency list. Latency carries the
// simulated link latency in nanoseconds (it is the quantity MLL is computed
// from); Weight is the partitioner's cut-avoidance weight derived from it.
type Edge struct {
	To      int32
	Weight  int64
	Latency int64
}

// Graph is a weighted undirected graph in adjacency-list form. Every edge
// appears twice, once in each endpoint's list. NodeWeight[i] estimates the
// simulation load of node i.
type Graph struct {
	Adj        [][]Edge
	NodeWeight []int64
}

// New returns an empty graph with n nodes of weight 1.
func New(n int) *Graph {
	g := &Graph{
		Adj:        make([][]Edge, n),
		NodeWeight: make([]int64, n),
	}
	for i := range g.NodeWeight {
		g.NodeWeight[i] = 1
	}
	return g
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.Adj) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, a := range g.Adj {
		total += len(a)
	}
	return total / 2
}

// AddEdge inserts an undirected edge u—v with the given partition weight and
// link latency. Self loops are ignored. Parallel edges are allowed and are
// treated as independent (their weights sum in cuts).
func (g *Graph) AddEdge(u, v int, weight, latency int64) {
	if u == v {
		return
	}
	g.Adj[u] = append(g.Adj[u], Edge{To: int32(v), Weight: weight, Latency: latency})
	g.Adj[v] = append(g.Adj[v], Edge{To: int32(u), Weight: weight, Latency: latency})
}

// TotalNodeWeight returns the sum of node weights.
func (g *Graph) TotalNodeWeight() int64 {
	var total int64
	for _, w := range g.NodeWeight {
		total += w
	}
	return total
}

// Validate checks structural invariants: symmetric adjacency, in-range
// endpoints, no self loops, positive node weights. It is used by tests and
// by generators in debug paths.
func (g *Graph) Validate() error {
	n := g.Len()
	if len(g.NodeWeight) != n {
		return fmt.Errorf("graph: %d nodes but %d node weights", n, len(g.NodeWeight))
	}
	type key struct {
		u, v   int32
		w, lat int64
	}
	count := map[key]int{}
	for u, adj := range g.Adj {
		for _, e := range adj {
			if int(e.To) < 0 || int(e.To) >= n {
				return fmt.Errorf("graph: node %d has edge to out-of-range %d", u, e.To)
			}
			if int(e.To) == u {
				return fmt.Errorf("graph: self loop at %d", u)
			}
			k := key{int32(u), e.To, e.Weight, e.Latency}
			count[k]++
		}
	}
	for k, c := range count {
		rk := key{k.v, k.u, k.w, k.lat}
		if count[rk] != c {
			return fmt.Errorf("graph: asymmetric edge %d—%d (%d vs %d copies)", k.u, k.v, c, count[rk])
		}
	}
	for i, w := range g.NodeWeight {
		if w <= 0 {
			return fmt.Errorf("graph: node %d has non-positive weight %d", i, w)
		}
	}
	return nil
}

// MaxEdgeLatency returns the largest latency over all edges, or -1 if the
// graph has no edges.
func (g *Graph) MaxEdgeLatency() int64 {
	max := int64(-1)
	for _, adj := range g.Adj {
		for _, e := range adj {
			if e.Latency > max {
				max = e.Latency
			}
		}
	}
	return max
}

// Contraction is the result of collapsing groups of nodes into supernodes:
// the "dumped graph" G_d of the hierarchical load balance approach.
type Contraction struct {
	// Graph is the contracted graph. Node weights are the sums of the
	// collapsed nodes' weights; parallel edges between the same pair of
	// supernodes are merged, summing weights and keeping the minimum
	// latency.
	Graph *Graph
	// Map[i] is the supernode that original node i collapsed into.
	Map []int32
}

// A Contractor contracts one graph at a rising sequence of thresholds — the
// T_mll sweep of Section 3.4.3 — with one union-find for the whole sweep:
// the edges are sorted by latency once, and raising the threshold only
// unions the edges it newly admits. At threshold T every connected
// component of the subgraph formed by edges with Latency < T collapses into
// a single supernode, and edges with latency ≥ T survive (possibly
// merged), so any cut of the contracted graph only crosses links of
// latency ≥ T — the worst-case MLL bound of Section 3.4.3.
//
// A contraction depends only on which nodes share a component: supernodes
// are numbered in the order of their lowest original node, and parallel
// edges merge in ascending (a, b) order. So a threshold that merges no
// components yields a Contraction identical to the previous one.
//
// Contracting is split in two. Snapshot, cheap and tied to the Contractor,
// fixes the supernodes at the current threshold; Snapshot.Build, the
// expensive half, builds the contracted graph into storage its caller
// owns. Snapshots share nothing writable, so snapshots taken in sweep order
// can be built on any goroutines, in any order.
type Contractor struct {
	g      *Graph
	byLat  []pairEdge // every undirected edge once, ascending latency; never written after NewContractor
	next   int        // byLat[:next] lie below the threshold
	parent []int32
	merges int
}

// NewContractor returns a Contractor of g at threshold 0 (nothing merged).
func NewContractor(g *Graph) *Contractor {
	n := g.Len()
	c := &Contractor{g: g, parent: make([]int32, n), byLat: make([]pairEdge, 0, g.NumEdges())}
	for i := range c.parent {
		c.parent[i] = int32(i)
	}
	for u, adj := range g.Adj {
		for _, e := range adj {
			if int(e.To) >= u { // visit each undirected edge once
				c.byLat = append(c.byLat, pairEdge{a: int32(u), b: e.To, weight: e.Weight, latency: e.Latency})
			}
		}
	}
	slices.SortFunc(c.byLat, func(x, y pairEdge) int { return cmp.Compare(x.latency, y.latency) })
	return c
}

// Advance raises the threshold: every edge with Latency < threshold joins
// its endpoints' components. Thresholds must not decrease. It reports
// whether any two components merged, i.e. whether a Snapshot would now
// differ from the previous one.
func (c *Contractor) Advance(threshold int64) bool {
	merged := false
	for ; c.next < len(c.byLat) && c.byLat[c.next].latency < threshold; c.next++ {
		e := &c.byLat[c.next]
		ra, rb := c.find(e.a), c.find(e.b)
		if ra != rb {
			c.parent[rb] = ra
			c.merges++
			merged = true
		}
	}
	return merged
}

// Len returns the number of supernodes at the current threshold.
func (c *Contractor) Len() int { return c.g.Len() - c.merges }

func (c *Contractor) find(x int32) int32 {
	for c.parent[x] != x {
		c.parent[x] = c.parent[c.parent[x]]
		x = c.parent[x]
	}
	return x
}

// Snapshot is a contraction at one threshold whose graph is not built yet:
// the supernode numbering and weights, and the edges that survive.
type Snapshot struct {
	m      []int32
	weight []int64
	edges  []pairEdge // a suffix of the Contractor's byLat, read only
}

// Snapshot fixes the supernodes at the current threshold. Later Advances
// do not change it.
func (c *Contractor) Snapshot() Snapshot {
	n := c.g.Len()
	// Densely renumber components by their lowest node.
	m := make([]int32, n)
	for i := range m {
		m[i] = -1
	}
	var count int32
	for i := 0; i < n; i++ {
		r := c.find(int32(i))
		if m[r] < 0 {
			m[r] = count
			count++
		}
		m[i] = m[r]
	}
	weight := make([]int64, count)
	for i := 0; i < n; i++ {
		weight[m[i]] += c.g.NodeWeight[i]
	}
	return Snapshot{m: m, weight: weight, edges: c.byLat[c.next:]}
}

// Build builds the contracted graph into l. It resets l first, so the
// graphs l built before must be out of use; the Contraction's graph is
// valid until l's next Reset.
func (s Snapshot) Build(l *EdgeList) *Contraction {
	l.Reset()
	// Edges below the threshold all lie inside a component; of the rest,
	// those joining two supernodes survive, merged per supernode pair.
	for _, e := range s.edges {
		l.Add(s.m[e.a], s.m[e.b], e.weight, e.latency)
	}
	return &Contraction{Graph: l.Build(s.weight), Map: s.m}
}

// EdgeList collects the undirected edges of a graph under construction and
// builds it. Parallel edges between one pair of nodes merge — weights sum,
// the smallest latency survives — and the merged edges enter the graph in
// ascending (a, b) order, so each adjacency list is what AddEdge in that
// order would give: ascending neighbor id. It is the one builder behind
// contraction and the partitioner's coarsening.
//
// The list keeps its memory: the built graphs' adjacency lives in storage
// that Reset hands back for the next builds. A caller that builds run after
// run of graphs sizes that storage with Reserve and Spare, so that only a
// run well beyond the earlier ones allocates more.
type EdgeList struct {
	edges, tmp []pairEdge
	count      []int32
	adj        arena[[]Edge] // storage of the graphs built since Reset
	adjEdges   arena[Edge]
}

// pairEdge is an undirected edge a—b with a ≤ b.
type pairEdge struct {
	a, b            int32
	weight, latency int64
}

// Add records the edge u—v. Self loops are dropped.
func (l *EdgeList) Add(u, v int32, weight, latency int64) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	l.edges = append(l.edges, pairEdge{a: u, b: v, weight: weight, latency: latency})
}

// Reset releases every graph built since the last Reset: the next builds
// reuse their adjacency storage, so they must be out of use.
func (l *EdgeList) Reset() {
	l.adj.reset()
	l.adjEdges.reset()
}

// Reserve sizes l for the builds until the next Reset when none of them
// has more than nodes nodes or edges edges, as when each is a coarsening of
// one graph of that size: its buffers then hold any one build, and the
// graphs' storage starts at one such graph's.
func (l *EdgeList) Reserve(nodes, edges int) {
	l.edges = slices.Grow(l.edges, edges)
	if cap(l.tmp) < edges {
		l.tmp = make([]pairEdge, edges)
	}
	if cap(l.count) < nodes+1 {
		l.count = make([]int32, nodes+1)
	}
	if cap(l.adj.buf) < nodes {
		l.adj.buf = make([][]Edge, 0, nodes)
	}
	if cap(l.adjEdges.buf) < 2*edges {
		l.adjEdges.buf = make([]Edge, 0, 2*edges)
	}
}

// Spare makes room, now, for the next run of builds after Reset to take a
// quarter more storage than the builds since the last Reset took: a caller
// that ends each run of builds with Spare allocates in the run that sets
// the size, not in the one after it.
func (l *EdgeList) Spare() {
	l.adj.spare()
	l.adjEdges.spare()
}

// Build returns the graph on len(nodeWeight) nodes with the recorded edges,
// and empties the list. The graph keeps nodeWeight; its adjacency is valid
// until the next Reset. Every adjacency list is carved from one []Edge with
// exactly its degree as capacity.
func (l *EdgeList) Build(nodeWeight []int64) *Graph {
	n := len(nodeWeight)
	if cap(l.count) < n+1 {
		l.count = make([]int32, n+1)
	}
	if cap(l.tmp) < len(l.edges) {
		l.tmp = make([]pairEdge, len(l.edges))
	}
	// Two stable counting sorts, by b and then by a: ascending (a, b).
	tmp := l.tmp[:len(l.edges)]
	l.countingSort(l.edges, tmp, n, false)
	l.countingSort(tmp, l.edges, n, true)
	merged := l.edges[:0]
	for _, e := range l.edges {
		if k := len(merged) - 1; k >= 0 && merged[k].a == e.a && merged[k].b == e.b {
			merged[k].weight += e.weight
			merged[k].latency = min(merged[k].latency, e.latency)
			continue
		}
		merged = append(merged, e)
	}
	deg := l.count[:n]
	clear(deg)
	for _, e := range merged {
		deg[e.a]++
		deg[e.b]++
	}
	buf := l.adjEdges.carve(2 * len(merged))
	g := &Graph{Adj: l.adj.carve(n), NodeWeight: nodeWeight}
	off := 0
	for i, d := range deg {
		g.Adj[i] = buf[off : off : off+int(d)]
		off += int(d)
	}
	for _, e := range merged {
		g.Adj[e.a] = append(g.Adj[e.a], Edge{To: e.b, Weight: e.weight, Latency: e.latency})
		g.Adj[e.b] = append(g.Adj[e.b], Edge{To: e.a, Weight: e.weight, Latency: e.latency})
	}
	l.edges = l.edges[:0]
	return g
}

// arena hands out slices carved from one buffer. When the buffer is full
// it starts a larger one; what was carved before stays put.
type arena[T any] struct {
	buf  []T
	used int  // elements carved since reset, in every buffer
	grew bool // a buffer was started since reset
}

// carve takes the next n elements, with capacity n.
func (a *arena[T]) carve(n int) []T {
	if len(a.buf)+n > cap(a.buf) {
		a.buf = make([]T, 0, max(2*cap(a.buf), n))
		a.grew = true
	}
	b := a.buf
	a.buf = b[:len(b)+n]
	a.used += n
	return b[len(b) : len(b)+n : len(b)+n]
}

// spare, when the carves since reset outgrew the buffer they started in,
// starts one that holds a quarter more than all of them, so that a later
// run of carves a little larger than this one fits in it.
func (a *arena[T]) spare() {
	if want := a.used + a.used/4; a.grew && cap(a.buf) < want {
		a.buf = make([]T, 0, want)
	}
}

// reset makes the buffer reusable: the slices carved before must be out
// of use.
func (a *arena[T]) reset() {
	a.buf, a.used, a.grew = a.buf[:0], 0, false
}

// countingSort stably sorts src into dst by a (byA) or by b; keys lie in
// [0, n).
func (l *EdgeList) countingSort(src, dst []pairEdge, n int, byA bool) {
	start := l.count[:n+1]
	clear(start)
	key := func(e *pairEdge) int32 {
		if byA {
			return e.a
		}
		return e.b
	}
	for i := range src {
		start[key(&src[i])+1]++
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	for i := range src {
		k := key(&src[i])
		dst[start[k]] = src[i]
		start[k]++
	}
}

// Project lifts a partition of the contracted graph back to the original
// graph: original node i lands in part[Map[i]].
func (c *Contraction) Project(part []int32) []int32 {
	out := make([]int32, len(c.Map))
	for i, m := range c.Map {
		out[i] = part[m]
	}
	return out
}

// CutStats describes a partition of a graph.
type CutStats struct {
	// EdgeCut is the sum of weights of edges crossing parts.
	EdgeCut int64
	// MinCutLatency is the minimum latency among crossing edges — the
	// achieved MLL. It is -1 when no edge crosses (single part or
	// disconnected placement).
	MinCutLatency int64
	// PartWeight[p] is the total node weight in part p.
	PartWeight []int64
	// CrossEdges is the number of crossing edges.
	CrossEdges int
}

// EvaluatePartition computes cut statistics for an assignment of nodes to
// nparts parts. It panics if part has the wrong length or contains an
// out-of-range part id.
func (g *Graph) EvaluatePartition(part []int32, nparts int) CutStats {
	if len(part) != g.Len() {
		panic(fmt.Sprintf("graph: partition length %d != %d nodes", len(part), g.Len()))
	}
	stats := CutStats{MinCutLatency: -1, PartWeight: make([]int64, nparts)}
	for u, adj := range g.Adj {
		p := part[u]
		if p < 0 || int(p) >= nparts {
			panic(fmt.Sprintf("graph: node %d assigned to invalid part %d", u, p))
		}
		stats.PartWeight[p] += g.NodeWeight[u]
		for _, e := range adj {
			if int(e.To) < u {
				continue // count each undirected edge once
			}
			if part[e.To] != p {
				stats.EdgeCut += e.Weight
				stats.CrossEdges++
				if stats.MinCutLatency < 0 || e.Latency < stats.MinCutLatency {
					stats.MinCutLatency = e.Latency
				}
			}
		}
	}
	return stats
}
