package partition

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"massf/internal/graph"
	"massf/internal/topology"
)

// grid returns an r×c grid graph with unit weights and the given latency.
func grid(r, c int, latency int64) *graph.Graph {
	g := graph.New(r * c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.AddEdge(id(i, j), id(i, j+1), 1, latency)
			}
			if i+1 < r {
				g.AddEdge(id(i, j), id(i+1, j), 1, latency)
			}
		}
	}
	return g
}

// powerLaw returns a preferential-attachment graph of n nodes.
func powerLaw(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	targets := []int{0}
	for i := 1; i < n; i++ {
		t := targets[rng.Intn(len(targets))]
		g.AddEdge(i, t, int64(1+rng.Intn(10)), int64(1+rng.Intn(1000)))
		targets = append(targets, t, i)
	}
	return g
}

func checkValid(t *testing.T, g *graph.Graph, part []int32, k int) {
	t.Helper()
	if len(part) != g.Len() {
		t.Fatalf("partition length %d != %d", len(part), g.Len())
	}
	for i, p := range part {
		if p < 0 || int(p) >= k {
			t.Fatalf("node %d in invalid part %d (k=%d)", i, p, k)
		}
	}
}

func TestPartitionInvalidOptions(t *testing.T) {
	g := grid(2, 2, 10)
	if _, err := Partition(g, Options{Parts: 0}); err == nil {
		t.Error("Parts=0 accepted")
	}
	if _, err := Partition(graph.New(0), Options{Parts: 2}); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestPartitionSinglePart(t *testing.T) {
	g := grid(3, 3, 10)
	part, err := Partition(g, Options{Parts: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range part {
		if p != 0 {
			t.Fatal("k=1 must place everything in part 0")
		}
	}
}

func TestPartitionMorePartsThanNodes(t *testing.T) {
	g := grid(2, 2, 10)
	part, err := Partition(g, Options{Parts: 10})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, g, part, 10)
	seen := map[int32]bool{}
	for _, p := range part {
		if seen[p] {
			t.Fatal("k ≥ n must give each node its own part")
		}
		seen[p] = true
	}
}

// TestFillEmptyTakesCheapestNodeOfLargestPart: on the chain 0—1—2—3—4
// (unit weights, 2—3 weighing 5) with parts {0,1,2}, {3}, {4} and two
// empty, the first empty part takes node 0 from the largest part: nodes 0
// and 2 each cut one edge inside it (2—3 already crosses parts), and 0 has
// the lower id. The second takes node 1 over node 2 by the same rule. A
// partition with no empty part is left as it is.
func TestFillEmptyTakesCheapestNodeOfLargestPart(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1, 1, 10)
	g.AddEdge(1, 2, 1, 10)
	g.AddEdge(2, 3, 5, 10)
	g.AddEdge(3, 4, 1, 10)
	s := new(scratch)
	part := []int32{0, 0, 0, 1, 2}
	fillEmpty(g, part, 5, s)
	if want := []int32{3, 4, 0, 1, 2}; !slices.Equal(part, want) {
		t.Errorf("filled parts %v, want %v", part, want)
	}
	full := []int32{0, 1, 0, 1, 2}
	fillEmpty(g, full, 3, s)
	if want := []int32{0, 1, 0, 1, 2}; !slices.Equal(full, want) {
		t.Errorf("a partition with no empty part moved: %v, want %v", full, want)
	}
}

func TestPartitionGridBalanced(t *testing.T) {
	g := grid(16, 16, 10)
	for _, k := range []int{2, 4, 8} {
		part, err := Partition(g, Options{Parts: k, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkValid(t, g, part, k)
		if b := Balance(g, part, k); b > 1.15 {
			t.Errorf("k=%d balance %.3f exceeds 1.15", k, b)
		}
	}
}

func TestPartitionGridCutQuality(t *testing.T) {
	// A 16×16 grid bisected optimally cuts 16 edges; accept ≤ 2.5× that.
	g := grid(16, 16, 10)
	part, err := Partition(g, Options{Parts: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	stats := g.EvaluatePartition(part, 2)
	if stats.EdgeCut > 40 {
		t.Errorf("grid bisection cut %d, want ≤ 40 (optimal 16)", stats.EdgeCut)
	}
}

func TestPartitionBeatsRandomCut(t *testing.T) {
	g := powerLaw(2000, 3)
	k := 8
	part, err := Partition(g, Options{Parts: k, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ours := g.EvaluatePartition(part, k).EdgeCut
	rng := rand.New(rand.NewSource(99))
	randPart := make([]int32, g.Len())
	for i := range randPart {
		randPart[i] = int32(rng.Intn(k))
	}
	random := g.EvaluatePartition(randPart, k).EdgeCut
	if ours*2 > random {
		t.Errorf("partitioner cut %d not clearly better than random cut %d", ours, random)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g := powerLaw(500, 7)
	a, err := Partition(g, Options{Parts: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(g, Options{Parts: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different partitions")
		}
	}
}

// TestPartitionConcurrentDeterministic: calls on several goroutines at
// once each get their own pooled scratch and return what a lone call does.
func TestPartitionConcurrentDeterministic(t *testing.T) {
	graphs := []*graph.Graph{powerLaw(600, 31), grid(20, 20, 10), powerLaw(150, 32)}
	want := make([][]int32, len(graphs))
	for i, g := range graphs {
		p, err := Partition(g, Options{Parts: 5, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				i := (w + r) % len(graphs)
				got, err := Partition(graphs[i], Options{Parts: 5, Seed: int64(i)})
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got, want[i]) {
					t.Errorf("goroutine %d: graph %d partitioned differently from the lone call", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestPartitionRespectsNodeWeights(t *testing.T) {
	// Two heavy nodes must land in different parts for balance.
	g := graph.New(10)
	g.NodeWeight[0] = 100
	g.NodeWeight[5] = 100
	for i := 0; i < 9; i++ {
		g.AddEdge(i, i+1, 1, 10)
	}
	part, err := Partition(g, Options{Parts: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if part[0] == part[5] {
		t.Error("both heavy nodes in the same part")
	}
}

func TestRefinementImprovesOrMatchesCut(t *testing.T) {
	g := powerLaw(1500, 13)
	base, err := Partition(g, Options{Parts: 8, Seed: 2, DisableRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Partition(g, Options{Parts: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cutBase := g.EvaluatePartition(base, 8).EdgeCut
	cutRef := g.EvaluatePartition(refined, 8).EdgeCut
	if cutRef > cutBase {
		t.Errorf("refinement worsened cut: %d → %d", cutBase, cutRef)
	}
}

func TestPartitionDisconnectedGraph(t *testing.T) {
	g := graph.New(40)
	for i := 0; i < 19; i++ {
		g.AddEdge(i, i+1, 1, 10)
	}
	for i := 20; i < 39; i++ {
		g.AddEdge(i, i+1, 1, 10)
	}
	part, err := Partition(g, Options{Parts: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, g, part, 4)
	if b := Balance(g, part, 4); b > 1.3 {
		t.Errorf("disconnected balance %.3f too high", b)
	}
}

func TestPartitionStarGraph(t *testing.T) {
	// Star: hub with 100 leaves. Any k-way split is fine, but it must not
	// crash and must remain balanced-ish.
	g := graph.New(101)
	for i := 1; i <= 100; i++ {
		g.AddEdge(0, i, 1, 10)
	}
	part, err := Partition(g, Options{Parts: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, g, part, 4)
	if b := Balance(g, part, 4); b > 1.2 {
		t.Errorf("star balance %.3f", b)
	}
}

func TestBalancePerfect(t *testing.T) {
	g := grid(2, 2, 1)
	if b := Balance(g, []int32{0, 0, 1, 1}, 2); b != 1.0 {
		t.Errorf("Balance = %v, want 1.0", b)
	}
}

// Property: every partition output is valid (right length, in-range ids)
// and, when k ≤ n, uses every part at least once for connected graphs with
// n ≫ k.
func TestQuickPartitionValidity(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := 2 + int(kRaw)%7
		g := powerLaw(200+int(seed%100+100)%300, seed)
		part, err := Partition(g, Options{Parts: k, Seed: seed})
		if err != nil {
			return false
		}
		used := map[int32]bool{}
		for _, p := range part {
			if p < 0 || int(p) >= k {
				return false
			}
			used[p] = true
		}
		return len(used) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: balance constraint is honored within a small slack for
// unit-weight graphs.
func TestQuickBalanceBound(t *testing.T) {
	f := func(seed int64) bool {
		g := powerLaw(400, seed)
		part, err := Partition(g, Options{Parts: 8, Seed: seed})
		if err != nil {
			return false
		}
		return Balance(g, part, 8) <= 1.25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPartition20kPowerLaw(b *testing.B) {
	g := powerLaw(20000, 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(g, Options{Parts: 90, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionGrid(b *testing.B) {
	g := grid(100, 100, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(g, Options{Parts: 16, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOptionsImbalanceHonored(t *testing.T) {
	g := powerLaw(1000, 22)
	for _, eps := range []float64{0.02, 0.05, 0.20} {
		part, err := Partition(g, Options{Parts: 5, Seed: 2, Imbalance: eps})
		if err != nil {
			t.Fatal(err)
		}
		// Balance ≤ 1+ε with slack for indivisible nodes.
		if b := Balance(g, part, 5); b > 1+eps+0.10 {
			t.Errorf("ε=%v: balance %v", eps, b)
		}
	}
}

func TestPartitionHeterogeneousWeightsBalance(t *testing.T) {
	// Power-law node weights: balance within tolerance measured by
	// weight, not count.
	rng := rand.New(rand.NewSource(24))
	g := powerLaw(600, 24)
	for i := range g.NodeWeight {
		g.NodeWeight[i] = int64(1 + rng.Intn(50))
	}
	part, err := Partition(g, Options{Parts: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if b := Balance(g, part, 6); b > 1.25 {
		t.Errorf("weighted balance %v", b)
	}
}

// rebalanceRef is rebalance as it was before it learned to leave its
// cycle: the full 4n-iteration loop, scanning every node per move. It is
// the oracle the pooled, cycle-leaving rebalance must match exactly.
func rebalanceRef(g *graph.Graph, part []int32, opts Options) {
	n := g.Len()
	k := opts.Parts
	partWeight := make([]int64, k)
	var total int64
	for v := 0; v < n; v++ {
		partWeight[part[v]] += g.NodeWeight[v]
		total += g.NodeWeight[v]
	}
	maxW := int64(float64(total) / float64(k) * (1 + opts.Imbalance))
	for iter := 0; iter < 4*n; iter++ {
		// Heaviest overweight part and lightest part.
		heavy, light := 0, 0
		for p := 1; p < k; p++ {
			if partWeight[p] > partWeight[heavy] {
				heavy = p
			}
			if partWeight[p] < partWeight[light] {
				light = p
			}
		}
		if partWeight[heavy] <= maxW || heavy == light {
			return
		}
		// Pick the node in `heavy` whose move to `light` costs the least
		// cut, without making `light` overweight. Prefer small nodes that
		// still fit.
		best := int32(-1)
		var bestCost int64
		for v := 0; v < n; v++ {
			if part[v] != int32(heavy) {
				continue
			}
			nw := g.NodeWeight[v]
			if partWeight[light]+nw > maxW && nw < partWeight[heavy]-maxW {
				continue
			}
			var cost int64
			for _, e := range g.Adj[v] {
				if part[e.To] == int32(heavy) {
					cost += e.Weight
				} else if part[e.To] == int32(light) {
					cost -= e.Weight
				}
			}
			if best < 0 || cost < bestCost {
				best, bestCost = int32(v), cost
			}
		}
		if best < 0 {
			return
		}
		partWeight[heavy] -= g.NodeWeight[best]
		partWeight[light] += g.NodeWeight[best]
		part[best] = int32(light)
	}
}

// rebalanceCase is a random connected graph of n nodes in k random parts.
// With heavy set, one node outweighs (1+ε)·total/k on its own, so no
// placement is balanced and the moves cycle until the cap.
func rebalanceCase(rng *rand.Rand, n, k int, heavy bool) (*graph.Graph, []int32) {
	g := randomGraph(rng, n, n)
	if heavy {
		g.NodeWeight[rng.Intn(n)] = g.TotalNodeWeight()
	}
	part := make([]int32, n)
	skew := rng.Intn(2) == 0 // half the cases start with everything piled on few parts
	for v := range part {
		if skew {
			part[v] = int32(rng.Intn(1 + k/3))
		} else {
			part[v] = int32(rng.Intn(k))
		}
	}
	return g, part
}

// TestRebalanceMatchesReference: rebalance ends in exactly the state the
// old full loop ends in — on random graphs for k ∈ {2, 3, 5, 16}, with and
// without a node heavier than the balance bound (the case that cycles to
// the cap), and on a net where the heavy role passes through three parts
// before two of them settle into the bounce. One scratch serves every case,
// as the pool makes it do in a sweep.
func TestRebalanceMatchesReference(t *testing.T) {
	s := new(scratch)
	check := func(name string, g *graph.Graph, part []int32, opts Options) int {
		t.Helper()
		want := append([]int32(nil), part...)
		rebalanceRef(g, want, opts)
		got := append([]int32(nil), part...)
		period := rebalance(g, got, opts, s)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: node %d ends in part %d, the full loop leaves it in %d (cycle period %d)",
					name, v, got[v], want[v], period)
			}
		}
		return period
	}
	for _, k := range []int{2, 3, 5, 16} {
		cycles := 0
		for trial := 0; trial < 60; trial++ {
			seed := int64(k*1000 + trial)
			rng := rand.New(rand.NewSource(seed))
			n := k + rng.Intn(12*k)
			heavy := trial%2 == 1
			g, part := rebalanceCase(rng, n, k, heavy)
			opts := Options{Parts: k, Imbalance: []float64{0.05, 0.01, 0.3}[trial%3]}
			opts.setDefaults()
			if check(fmt.Sprintf("k=%d seed=%d heavy=%v", k, seed, heavy), g, part, opts) > 0 {
				cycles++
			}
		}
		if cycles == 0 {
			t.Errorf("k=%d: no case left a cycle; the property test no longer covers the early exit", k)
		}
	}

	// Two nodes over the bound, three parts (bases 2, 6, 0): the heavy role
	// goes A → B → C, then node 0 bounces between B and C until the cap.
	g := graph.New(4)
	g.NodeWeight = []int64{105, 100, 2, 6}
	opts := Options{Parts: 3}
	opts.setDefaults()
	if p := check("three-part rotation", g, []int32{0, 1, 0, 1}, opts); p != 2 {
		t.Errorf("three-part rotation: left a cycle of period %d, want the B↔C bounce (2)", p)
	}
}

// TestRefineKWayTieLowestPart: a boundary node whose best moves are equal
// in gain and in target weight goes to the lowest part id, whatever order
// its edges list the parts in. refineKWay used to pick the first candidate
// of a Go map iteration, so one seed could give two partitions.
func TestRefineKWayTieLowestPart(t *testing.T) {
	cases := []struct {
		name    string
		k       int
		home    int32
		targets []int32 // in the order node 0's edges reach them
		want    int32
	}{
		{"parts 1 and 2", 3, 0, []int32{1, 2}, 1},
		{"parts 2 and 1", 3, 0, []int32{2, 1}, 1},
		{"three parts", 4, 0, []int32{3, 1, 2}, 1},
		{"below home", 3, 2, []int32{1, 0}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Node 0 sits in home beside one weak edge; every other part
			// holds two nodes tied by a heavy edge, and each target part's
			// first node takes an equal edge from node 0. All parts weigh
			// 2 and ε = 0.6, so either move fits and gains 4.
			g := graph.New(2 * tc.k)
			part := make([]int32, 2*tc.k)
			part[0], part[1] = tc.home, tc.home
			g.AddEdge(0, 1, 1, 1)
			slot := map[int32]int{}
			next := 2
			for p := int32(0); int(p) < tc.k; p++ {
				if p == tc.home {
					continue
				}
				slot[p] = next
				part[next], part[next+1] = p, p
				g.AddEdge(next, next+1, 100, 1)
				next += 2
			}
			for _, p := range tc.targets {
				g.AddEdge(0, slot[p], 5, 1)
			}
			opts := Options{Parts: tc.k, Imbalance: 0.6}
			opts.setDefaults()
			for run := 0; run < 64; run++ {
				got := append([]int32(nil), part...)
				refineKWay(g, got, opts, rand.New(rand.NewSource(1)), new(scratch))
				if got[0] != tc.want {
					t.Fatalf("run %d: node 0 moved to part %d, want %d", run, got[0], tc.want)
				}
			}
		})
	}
}

// TestPermMatchesRandPerm: the scratch permutation is rng.Perm's, and it
// leaves the generator where rng.Perm leaves it.
func TestPermMatchesRandPerm(t *testing.T) {
	s := new(scratch)
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		a, b := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
		want := a.Perm(n)
		got := s.perm(b, n)
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("n=%d: perm[%d] = %d, rng.Perm gives %d", n, i, got[i], want[i])
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("n=%d: perm left the generator elsewhere than rng.Perm", n)
		}
	}
}

// TestScratchStopsGrowingAfterFirstCall: a scratch's first call sizes the
// coarse graphs' storage from the input graph and, once its ladder of
// coarse graphs is built, with a quarter to spare over it, so the second
// call allocates about what every later one does. The graph is a flat
// 2000-router net's links, whose hubs coarsen slowly: the ladder holds
// ≈ 5.6× the input's adjacency. The scratch is used directly, not through
// scratchPool, which drops items at random under -race.
func TestScratchStopsGrowingAfterFirstCall(t *testing.T) {
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 2000, Hosts: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(len(net.Nodes))
	for i := range net.Links {
		l := &net.Links[i]
		g.AddEdge(int(l.A), int(l.B), 1, int64(l.Latency))
	}
	s := new(scratch)
	var bytes [3]uint64
	for call := range bytes {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s.partition(g, Options{Parts: 2, Imbalance: 0.05, Seed: int64(call)})
		runtime.ReadMemStats(&m1)
		bytes[call] = m1.TotalAlloc - m0.TotalAlloc
	}
	t.Logf("calls allocated %v bytes", bytes)
	if bytes[1] > bytes[2]*5/4 {
		t.Errorf("second call allocated %d bytes, more than 1.25× the third's %d", bytes[1], bytes[2])
	}
}
