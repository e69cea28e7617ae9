package partition

import (
	"math/rand"
	"testing"

	"massf/internal/graph"
)

// randomGraph builds a connected graph: a random spanning tree plus extra
// random edges, with random node weights, edge weights, and latencies.
func randomGraph(rng *rand.Rand, n, extraEdges int) *graph.Graph {
	g := graph.New(n)
	for v := range g.NodeWeight {
		g.NodeWeight[v] = 1 + rng.Int63n(10)
	}
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		g.AddEdge(u, v, 1+rng.Int63n(100), 1+rng.Int63n(1_000_000))
	}
	for i := 0; i < extraEdges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		g.AddEdge(u, v, 1+rng.Int63n(100), 1+rng.Int63n(1_000_000))
	}
	return g
}

// maxNodeWeight is the balance quantization slack: a part can exceed the
// ideal bound by at most one node, because moving any node out would
// undershoot.
func maxNodeWeight(g *graph.Graph) int64 {
	var m int64
	for _, w := range g.NodeWeight {
		if w > m {
			m = w
		}
	}
	return m
}

// TestPartitionProperties is the quick-style property check: across a
// table of sizes and a generator of random graphs, every produced
// partition is a complete disjoint k-way cover of the nodes (every node
// assigned exactly one in-range part), balanced within the configured
// tolerance plus single-node quantization, and deterministic per seed.
func TestPartitionProperties(t *testing.T) {
	cases := []struct {
		n, extra, k int
	}{
		{10, 5, 2},
		{10, 5, 3}, // k does not divide n: quantization slack matters
		{50, 40, 4},
		{64, 64, 8},
		{200, 150, 8},
		{333, 300, 5},
	}
	for _, tc := range cases {
		for trial := 0; trial < 5; trial++ {
			seed := int64(tc.n*1000 + tc.k*10 + trial)
			rng := rand.New(rand.NewSource(seed))
			g := randomGraph(rng, tc.n, tc.extra)
			opts := Options{Parts: tc.k, Seed: seed}
			part, err := Partition(g, opts)
			if err != nil {
				t.Fatalf("n=%d k=%d trial=%d: %v", tc.n, tc.k, trial, err)
			}
			if len(part) != tc.n {
				t.Fatalf("n=%d k=%d: partition covers %d nodes", tc.n, tc.k, len(part))
			}
			for v, p := range part {
				if p < 0 || int(p) >= tc.k {
					t.Fatalf("n=%d k=%d: node %d assigned out-of-range part %d", tc.n, tc.k, v, p)
				}
			}
			// Balance: (1+ε)·total/k plus at most one node of slack — for
			// small n/k strict (1+ε) is infeasible (e.g. 10 unit nodes in
			// 3 parts must put 4 somewhere).
			st := g.EvaluatePartition(part, tc.k)
			eps := 0.05 // Options default
			bound := int64(float64(g.TotalNodeWeight())/float64(tc.k)*(1+eps)) + maxNodeWeight(g)
			for p, w := range st.PartWeight {
				if w > bound {
					t.Errorf("n=%d k=%d seed=%d: part %d weighs %d > bound %d (total %d)",
						tc.n, tc.k, seed, p, w, bound, g.TotalNodeWeight())
				}
			}
			// Determinism: same graph + seed → identical partition.
			again, err := Partition(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			for v := range part {
				if part[v] != again[v] {
					t.Fatalf("n=%d k=%d seed=%d: partition not deterministic at node %d", tc.n, tc.k, seed, v)
				}
			}
		}
	}
}

// TestRefinementNeverIncreasesCut: FM-style k-way refinement only accepts
// non-negative-gain moves, so from any starting assignment the edge cut is
// monotonically non-increasing.
func TestRefinementNeverIncreasesCut(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		seed := int64(7000 + trial)
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(180)
		k := 2 + rng.Intn(7)
		g := randomGraph(rng, n, n)
		// Arbitrary (unbalanced, high-cut) starting assignment.
		part := make([]int32, n)
		for v := range part {
			part[v] = int32(rng.Intn(k))
		}
		before := g.EvaluatePartition(part, k).EdgeCut
		opts := Options{Parts: k, Seed: seed}
		opts.setDefaults()
		refineKWay(g, part, opts, rng, new(scratch))
		after := g.EvaluatePartition(part, k).EdgeCut
		if after > before {
			t.Errorf("seed=%d n=%d k=%d: refinement increased cut %d → %d", seed, n, k, before, after)
		}
		for v, p := range part {
			if p < 0 || int(p) >= k {
				t.Fatalf("seed=%d: refinement moved node %d to invalid part %d", seed, v, p)
			}
		}
	}
}
