package cluster

import (
	"testing"
	"testing/quick"
)

func TestTeraGridMatchesPaperAnchors(t *testing.T) {
	m := DefaultTeraGrid()
	// Paper: ~0.58 ms for 100 engine nodes.
	c100 := float64(m.SyncCost(100)) / 1e6
	if c100 < 0.5 || c100 > 0.7 {
		t.Errorf("C(100) = %.3f ms, want ≈0.58 ms", c100)
	}
	// Figure 5 spans roughly 100–900 µs over 2–112 nodes.
	c2 := float64(m.SyncCost(2)) / 1e3
	c112 := float64(m.SyncCost(112)) / 1e3
	if c2 < 100 || c2 > 400 {
		t.Errorf("C(2) = %.0f µs, want within Figure 5's low range", c2)
	}
	if c112 < 500 || c112 > 900 {
		t.Errorf("C(112) = %.0f µs, want within Figure 5's high range", c112)
	}
}

func TestTeraGridMonotone(t *testing.T) {
	m := DefaultTeraGrid()
	prev := int64(-1)
	for n := 2; n <= 256; n++ {
		c := m.SyncCost(n)
		if c <= prev {
			t.Fatalf("C(%d) = %d not strictly increasing (prev %d)", n, c, prev)
		}
		prev = c
	}
}

func TestSingleEngineCostsNothing(t *testing.T) {
	models := []SyncCostModel{DefaultTeraGrid(), Fixed{CostNS: 500}}
	for _, m := range models {
		if c := m.SyncCost(1); c != 0 {
			t.Errorf("%s: C(1) = %d, want 0", m.Name(), c)
		}
	}
}

func TestSyncCostPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SyncCost(0) did not panic")
		}
	}()
	DefaultTeraGrid().SyncCost(0)
}

func TestFixed(t *testing.T) {
	m := Fixed{CostNS: 1234}
	if m.SyncCost(2) != 1234 || m.SyncCost(100) != 1234 {
		t.Error("Fixed model not constant")
	}
	if m.Name() == "" {
		t.Error("empty name")
	}
}

func TestFig5Points(t *testing.T) {
	nodes, cost := Fig5Points(DefaultTeraGrid())
	if len(nodes) != len(cost) || len(nodes) == 0 {
		t.Fatal("mismatched or empty series")
	}
	for i := 1; i < len(cost); i++ {
		if cost[i] <= cost[i-1] {
			t.Fatalf("Fig5 series not increasing at %d nodes", nodes[i])
		}
	}
}

// Property: the analytic cost is superadditive-ish in the sense that
// doubling the node count increases the cost by at least the slope term.
func TestQuickTeraGridDoubling(t *testing.T) {
	m := DefaultTeraGrid()
	f := func(k uint8) bool {
		n := 2 + int(k)%120
		return m.SyncCost(2*n) > m.SyncCost(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
