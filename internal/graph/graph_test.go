package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// line returns a path graph 0—1—…—(n-1) with the given uniform latency.
func line(n int, latency int64) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(i, i+1, 1, latency)
	}
	return g
}

// contract is one contraction of g at threshold.
func contract(g *Graph, threshold int64) *Contraction {
	c := NewContractor(g)
	c.Advance(threshold)
	return c.Snapshot().Build(new(EdgeList))
}

func TestNewDefaults(t *testing.T) {
	g := New(5)
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", g.NumEdges())
	}
	if g.TotalNodeWeight() != 5 {
		t.Fatalf("TotalNodeWeight = %d, want 5 (default weight 1)", g.TotalNodeWeight())
	}
}

func TestAddEdgeSymmetryAndSelfLoop(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 7, 100)
	g.AddEdge(1, 1, 9, 100) // ignored
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if len(g.Adj[0]) != 1 || len(g.Adj[1]) != 1 || len(g.Adj[2]) != 0 {
		t.Fatalf("degrees wrong: %d %d %d", len(g.Adj[0]), len(g.Adj[1]), len(g.Adj[2]))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	g := New(2)
	g.Adj[0] = append(g.Adj[0], Edge{To: 1, Weight: 1, Latency: 1})
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted asymmetric adjacency")
	}
}

func TestValidateCatchesBadWeight(t *testing.T) {
	g := New(2)
	g.NodeWeight[1] = 0
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted zero node weight")
	}
}

// Contracting above every latency leaves one supernode per connected
// component: a connected graph collapses to one.
func TestConnected(t *testing.T) {
	if n := contract(line(4, 10), 11).Graph.Len(); n != 1 {
		t.Fatalf("path graph contracted to %d supernodes, want 1", n)
	}
	g2 := New(4)
	g2.AddEdge(0, 1, 1, 1)
	g2.AddEdge(2, 3, 1, 1)
	if n := contract(g2, 2).Graph.Len(); n != 2 {
		t.Fatalf("two-component graph contracted to %d supernodes, want 2", n)
	}
	if n := contract(New(0), 1).Graph.Len(); n != 0 {
		t.Fatalf("empty graph contracted to %d supernodes", n)
	}
}

// The supernodes of a full contraction label the connected components.
func TestComponents(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(3, 4, 1, 1)
	c := contract(g, 2)
	if n := c.Graph.Len(); n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	comp := c.Map
	if comp[0] != comp[1] || comp[3] != comp[4] || comp[0] == comp[2] || comp[2] == comp[3] {
		t.Fatalf("bad labels: %v", comp)
	}
}

func TestMinMaxEdgeLatency(t *testing.T) {
	g := New(3)
	if g.MaxEdgeLatency() != -1 {
		t.Fatal("edgeless graph should report -1 latency")
	}
	g.AddEdge(0, 1, 1, 50)
	g.AddEdge(1, 2, 1, 200)
	if g.MaxEdgeLatency() != 200 {
		t.Errorf("MaxEdgeLatency = %d, want 200", g.MaxEdgeLatency())
	}
}

func TestContractBelowBasic(t *testing.T) {
	// 0 -10- 1 -100- 2 -10- 3 : threshold 50 merges {0,1} and {2,3}.
	g := New(4)
	g.AddEdge(0, 1, 5, 10)
	g.AddEdge(1, 2, 7, 100)
	g.AddEdge(2, 3, 5, 10)
	c := contract(g, 50)
	if c.Graph.Len() != 2 {
		t.Fatalf("contracted to %d nodes, want 2", c.Graph.Len())
	}
	if c.Map[0] != c.Map[1] || c.Map[2] != c.Map[3] || c.Map[0] == c.Map[2] {
		t.Fatalf("bad contraction map: %v", c.Map)
	}
	if c.Graph.NodeWeight[c.Map[0]] != 2 || c.Graph.NodeWeight[c.Map[2]] != 2 {
		t.Fatalf("supernode weights wrong: %v", c.Graph.NodeWeight)
	}
	if c.Graph.NumEdges() != 1 {
		t.Fatalf("surviving edges = %d, want 1", c.Graph.NumEdges())
	}
	if got := c.Graph.MaxEdgeLatency(); got != 100 {
		t.Fatalf("surviving latency = %d, want 100", got)
	}
	if err := c.Graph.Validate(); err != nil {
		t.Fatalf("contracted graph invalid: %v", err)
	}
}

func TestContractBelowMergesParallelEdges(t *testing.T) {
	// Two supernodes connected by two surviving edges: weights sum, min
	// latency kept.
	g := New(4)
	g.AddEdge(0, 1, 1, 1)  // merge
	g.AddEdge(2, 3, 1, 1)  // merge
	g.AddEdge(0, 2, 5, 80) // survive
	g.AddEdge(1, 3, 7, 60) // survive
	c := contract(g, 10)
	if c.Graph.Len() != 2 {
		t.Fatalf("contracted to %d nodes, want 2", c.Graph.Len())
	}
	if c.Graph.NumEdges() != 1 {
		t.Fatalf("merged edge count = %d, want 1", c.Graph.NumEdges())
	}
	e := c.Graph.Adj[0][0]
	if e.Weight != 12 {
		t.Errorf("merged weight = %d, want 12", e.Weight)
	}
	if e.Latency != 60 {
		t.Errorf("merged latency = %d, want 60", e.Latency)
	}
}

func TestContractBelowZeroThresholdIsIdentityShape(t *testing.T) {
	g := line(6, 30)
	c := contract(g, 0)
	if c.Graph.Len() != 6 || c.Graph.NumEdges() != 5 {
		t.Fatalf("threshold 0 changed the graph: %d nodes %d edges", c.Graph.Len(), c.Graph.NumEdges())
	}
}

func TestContractBelowEverything(t *testing.T) {
	g := line(6, 30)
	c := contract(g, 1000)
	if c.Graph.Len() != 1 {
		t.Fatalf("full contraction left %d nodes", c.Graph.Len())
	}
	if c.Graph.TotalNodeWeight() != 6 {
		t.Fatalf("weight not conserved: %d", c.Graph.TotalNodeWeight())
	}
}

func TestProject(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(2, 3, 1, 1)
	g.AddEdge(1, 2, 1, 100)
	c := contract(g, 50)
	part := make([]int32, c.Graph.Len())
	part[c.Map[0]] = 0
	part[c.Map[2]] = 1
	full := c.Project(part)
	want := []int32{0, 0, 1, 1}
	for i := range want {
		if full[i] != want[i] {
			t.Fatalf("Project = %v, want %v", full, want)
		}
	}
}

func TestEvaluatePartition(t *testing.T) {
	g := New(4)
	g.NodeWeight = []int64{1, 2, 3, 4}
	g.AddEdge(0, 1, 5, 10)
	g.AddEdge(1, 2, 7, 20)
	g.AddEdge(2, 3, 9, 30)
	part := []int32{0, 0, 1, 1}
	s := g.EvaluatePartition(part, 2)
	if s.EdgeCut != 7 {
		t.Errorf("EdgeCut = %d, want 7", s.EdgeCut)
	}
	if s.MinCutLatency != 20 {
		t.Errorf("MinCutLatency = %d, want 20", s.MinCutLatency)
	}
	if s.CrossEdges != 1 {
		t.Errorf("CrossEdges = %d, want 1", s.CrossEdges)
	}
	if s.PartWeight[0] != 3 || s.PartWeight[1] != 7 {
		t.Errorf("PartWeight = %v, want [3 7]", s.PartWeight)
	}
}

func TestEvaluatePartitionNoCut(t *testing.T) {
	g := line(3, 5)
	s := g.EvaluatePartition([]int32{0, 0, 0}, 1)
	if s.MinCutLatency != -1 || s.EdgeCut != 0 {
		t.Errorf("uncut stats wrong: %+v", s)
	}
}

// Property: contraction conserves total node weight and achieves the MLL
// guarantee — every surviving edge has latency ≥ threshold.
func TestQuickContractionInvariants(t *testing.T) {
	f := func(seed int64, thresh uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		g := New(n)
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			g.AddEdge(u, v, int64(1+rng.Intn(100)), int64(rng.Intn(2000)))
		}
		c := contract(g, int64(thresh))
		if c.Graph.TotalNodeWeight() != g.TotalNodeWeight() {
			return false
		}
		for _, adj := range c.Graph.Adj {
			for _, e := range adj {
				if e.Latency < int64(thresh) {
					return false
				}
			}
		}
		return c.Graph.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: a projected partition of a contracted graph never cuts a
// sub-threshold edge of the original graph (the worst-case MLL bound).
func TestQuickProjectionMLLGuarantee(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := New(n)
		for i := 0; i < n*2; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 1, int64(rng.Intn(1000)))
		}
		thresh := int64(rng.Intn(1000))
		c := contract(g, thresh)
		part := make([]int32, c.Graph.Len())
		for i := range part {
			part[i] = int32(rng.Intn(4))
		}
		full := c.Project(part)
		s := g.EvaluatePartition(full, 4)
		return s.MinCutLatency == -1 || s.MinCutLatency >= thresh
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// contractBelowRef is a one-threshold contraction as it was before the
// Contractor: a fresh union-find per threshold, parallel edges merged
// through a map whose keys are then sorted, and the graph grown by AddEdge.
// It is the oracle for the Contractor and EdgeList.
func contractBelowRef(g *Graph, threshold int64) *Contraction {
	n := g.Len()
	// Union-find over nodes joined by sub-threshold edges.
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for u, adj := range g.Adj {
		for _, e := range adj {
			if e.Latency < threshold {
				union(int32(u), e.To)
			}
		}
	}
	// Densely renumber roots.
	m := make([]int32, n)
	for i := range m {
		m[i] = -1
	}
	var count int32
	for i := 0; i < n; i++ {
		r := find(int32(i))
		if m[r] < 0 {
			m[r] = count
			count++
		}
		m[i] = m[r]
	}
	gd := New(int(count))
	for i := range gd.NodeWeight {
		gd.NodeWeight[i] = 0
	}
	for i := 0; i < n; i++ {
		gd.NodeWeight[m[i]] += g.NodeWeight[i]
	}
	// Merge surviving edges per supernode pair (globally, so edges from
	// different original nodes that land on the same supernode pair merge
	// into one).
	type pair struct{ a, b int32 }
	type agg struct {
		weight  int64
		latency int64
	}
	merged := map[pair]agg{}
	for u := 0; u < n; u++ {
		mu := m[u]
		for _, e := range g.Adj[u] {
			if int(e.To) < u {
				continue // visit each undirected edge once
			}
			mv := m[e.To]
			if mv == mu {
				continue
			}
			k := pair{mu, mv}
			if k.a > k.b {
				k.a, k.b = k.b, k.a
			}
			a, ok := merged[k]
			if !ok || e.Latency < a.latency {
				a.latency = e.Latency
			}
			a.weight += e.Weight
			merged[k] = a
		}
	}
	// Deterministic insertion order.
	keys := make([]pair, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	for _, k := range keys {
		a := merged[k]
		gd.AddEdge(int(k.a), int(k.b), a.weight, a.latency)
	}
	return &Contraction{Graph: gd, Map: m}
}

// TestContractorMatchesReference: one Contractor advanced through rising
// thresholds gives, at each of them, the contraction the from-scratch
// builder gives — the same supernode numbering and weights, and the same
// adjacency lists edge for edge and in order — and reports a merge exactly
// when the supernode count drops. Latencies come from a small set, so
// parallel edges, ties at the threshold and thresholds that merge nothing
// all occur. Each snapshot is built twice: at once, on one EdgeList the
// whole sweep reuses, and after the sweep, in reverse order on an EdgeList
// of its own, with every graph checked only once all are built — so no
// snapshot shares storage with a later Advance or with another snapshot.
func TestContractorMatchesReference(t *testing.T) {
	same := func(seed, th int64, got, want *Contraction) {
		t.Helper()
		if got.Graph.Len() != want.Graph.Len() || !slices.Equal(got.Map, want.Map) ||
			!slices.Equal(got.Graph.NodeWeight, want.Graph.NodeWeight) {
			t.Fatalf("seed %d threshold %d: supernodes differ from the reference", seed, th)
		}
		for u := range want.Graph.Adj {
			if !slices.Equal(got.Graph.Adj[u], want.Graph.Adj[u]) {
				t.Fatalf("seed %d threshold %d: node %d adjacency %v, reference %v",
					seed, th, u, got.Graph.Adj[u], want.Graph.Adj[u])
			}
		}
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(80)
		g := New(n)
		for v := range g.NodeWeight {
			g.NodeWeight[v] = 1 + rng.Int63n(9)
		}
		for i := 0; i < 2*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 1+rng.Int63n(20), 100*rng.Int63n(20))
		}
		c := NewContractor(g)
		var reused EdgeList
		var ths []int64
		var snaps []Snapshot
		prev := n
		for th := int64(0); th <= 2100; th += 1 + rng.Int63n(300) {
			merged := c.Advance(th)
			if merged != (c.Len() < prev) {
				t.Fatalf("seed %d threshold %d: Advance reported merged=%v, supernodes %d → %d", seed, th, merged, prev, c.Len())
			}
			prev = c.Len()
			s := c.Snapshot()
			got := s.Build(&reused)
			if got.Graph.Len() != c.Len() {
				t.Fatalf("seed %d threshold %d: %d supernodes, Contractor counts %d", seed, th, got.Graph.Len(), c.Len())
			}
			same(seed, th, got, contractBelowRef(g, th))
			ths, snaps = append(ths, th), append(snaps, s)
		}
		built := make([]*Contraction, len(snaps))
		for i := len(snaps) - 1; i >= 0; i-- {
			built[i] = snaps[i].Build(new(EdgeList))
		}
		for i, got := range built {
			same(seed, ths[i], got, contractBelowRef(g, ths[i]))
		}
	}
}

func BenchmarkContract(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n := 20000
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, rng.Intn(i), 1, int64(rng.Intn(3_000_000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		contract(g, 500_000)
	}
}
