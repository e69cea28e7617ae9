// Package cluster models the physical simulation cluster that the parallel
// engine runs on, in particular its global synchronization cost (Figure 5 of
// the paper). The conservative engine must execute a global barrier every
// MLL of simulated time, so the barrier cost C(N) as a function of engine
// node count N is the quantity that both the hierarchical partitioner's
// T_mll lower bound and the partition evaluator's Es factor depend on.
//
// The model is an analytic fit to the paper's measured TeraGrid NCSA/SDSC
// Myrinet numbers (≈0.58 ms at 100 nodes, growing roughly logarithmically
// with a linear tail).
package cluster

import (
	"fmt"
	"math"
)

// SyncCostModel yields the global synchronization cost for a barrier over n
// engine nodes, in nanoseconds of wall-clock time.
type SyncCostModel interface {
	// SyncCost returns the barrier cost for n engine nodes. n must be ≥ 1.
	SyncCost(n int) int64
	// Name identifies the model in experiment output.
	Name() string
}

// TeraGrid is the analytic model fit to Figure 5 (synchronization cost of
// the TeraGrid cluster): C(N) = base + slope·log2(N) + linear·N. With the
// default coefficients C(8) ≈ 0.36 ms and C(100) ≈ 0.58 ms, matching the
// paper's quoted 0.58 ms for 100 simulation engine nodes and the 100–900 µs
// range of Figure 5.
type TeraGrid struct {
	// BaseNS is the fixed software overhead per barrier, ns.
	BaseNS float64
	// SlopeNS scales the log2(N) tree-reduction term, ns.
	SlopeNS float64
	// LinearNS models the per-node skew/straggler tail, ns.
	LinearNS float64
}

// DefaultTeraGrid returns the model with coefficients fit to Figure 5.
func DefaultTeraGrid() *TeraGrid {
	return &TeraGrid{BaseNS: 180_000, SlopeNS: 58_000, LinearNS: 150}
}

// SyncCost implements SyncCostModel.
func (m *TeraGrid) SyncCost(n int) int64 {
	if n < 1 {
		panic(fmt.Sprintf("cluster: SyncCost of %d nodes", n))
	}
	if n == 1 {
		return 0 // a single engine never synchronizes
	}
	c := m.BaseNS + m.SlopeNS*math.Log2(float64(n)) + m.LinearNS*float64(n)
	return int64(c)
}

// Name implements SyncCostModel.
func (m *TeraGrid) Name() string { return "teragrid-fig5" }

// Fixed is a constant-cost model, useful in tests and ablations.
type Fixed struct{ CostNS int64 }

// SyncCost implements SyncCostModel.
func (m Fixed) SyncCost(n int) int64 {
	if n <= 1 {
		return 0
	}
	return m.CostNS
}

// Name implements SyncCostModel.
func (m Fixed) Name() string { return fmt.Sprintf("fixed-%dns", m.CostNS) }

// Fig5Points returns the (N, cost) series of Figure 5 — the node counts the
// paper samples and the model's synchronization cost at each, in
// microseconds. This is the series the Fig 5 bench prints.
func Fig5Points(m SyncCostModel) (nodes []int, costUS []float64) {
	nodes = []int{2, 6, 11, 16, 24, 32, 48, 64, 80, 96, 112}
	costUS = make([]float64, len(nodes))
	for i, n := range nodes {
		costUS[i] = float64(m.SyncCost(n)) / 1000.0
	}
	return nodes, costUS
}
