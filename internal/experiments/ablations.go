// Ablation studies for the design choices DESIGN.md calls out: the T_mll
// sweep granularity, the E = Es·Ec selection metric, the edge-weight
// conversion, and the partitioner's refinement phase. Printed by
// `cmd/experiments -fig ablations`. The first three map st's network, a
// Setup s.Build returned, onto s's engines from prof, HPROF's profile.
package experiments

import (
	"fmt"
	"math/rand"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/graph"
	"massf/internal/partition"
	"massf/internal/profile"
)

// AblationTmllStep sweeps the hierarchical threshold step size.
func AblationTmllStep(s Scenario, st *Setup, prof *profile.Profile) (*Table, error) {
	t := &Table{
		Title:   "Ablation: T_mll sweep step size (HPROF)",
		Columns: []string{"Step", "Candidates", "Chosen Tmll", "MLL", "E"},
	}
	for _, step := range []des.Time{50 * des.Microsecond, 100 * des.Microsecond, 500 * des.Microsecond, 2 * des.Millisecond} {
		cfg := s.mapConfig(st)
		cfg.TmllStep = step
		m, err := core.Map(st.Net, core.HPROF, cfg, prof)
		if err != nil {
			return nil, err
		}
		t.AddRow(step.String(), fmt.Sprintf("%d", m.Candidates),
			m.Tmll.String(), m.MLL.String(), f3(m.E))
	}
	return t, nil
}

// AblationSelectionMetric compares selecting the sweep candidate by the
// paper's E = Es·Ec against Es-only and Ec-only selection (Section 3.4.3:
// "maximizing Es and Ec separately does not work").
func AblationSelectionMetric(s Scenario, st *Setup, prof *profile.Profile) (*Table, error) {
	cfg := s.mapConfig(st)
	cfg.KeepSweep = true
	m, err := core.Map(st.Net, core.HPROF, cfg, prof)
	if err != nil {
		return nil, err
	}
	if len(m.Sweep) == 0 {
		return nil, fmt.Errorf("experiments: sweep recorded no candidates")
	}
	best := func(key func(core.Candidate) float64) core.Candidate {
		out := m.Sweep[0]
		for _, c := range m.Sweep {
			if key(c) > key(out) {
				out = c
			}
		}
		return out
	}
	t := &Table{
		Title:   "Ablation: sweep selection metric (HPROF)",
		Columns: []string{"Selector", "Tmll", "MLL", "Es", "Ec", "E"},
	}
	for _, r := range []struct {
		name string
		c    core.Candidate
	}{
		{"E=Es·Ec (paper)", best(func(c core.Candidate) float64 { return c.E })},
		{"Es only", best(func(c core.Candidate) float64 { return c.Es })},
		{"Ec only", best(func(c core.Candidate) float64 { return c.Ec })},
	} {
		t.AddRow(r.name, r.c.Tmll.String(), r.c.MLL.String(), f3(r.c.Es), f3(r.c.Ec), f3(r.c.E))
	}
	return t, nil
}

// AblationEdgeWeights compares the TOP and TOP2 latency→weight conversions
// by achieved MLL and cut (Section 4.3's manual tuning).
func AblationEdgeWeights(s Scenario, st *Setup, prof *profile.Profile) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Ablation: latency→weight conversion (%d engines)", s.Engines),
		Columns: []string{"Conversion", "MLL", "Edge cut"},
	}
	for _, a := range []core.Approach{core.TOP, core.TOP2} {
		m, err := core.Map(st.Net, a, s.mapConfig(st), prof)
		if err != nil {
			return nil, err
		}
		label := "TOP  (w ∝ 1/lat)"
		if a == core.TOP2 {
			label = "TOP2 (w ∝ 1/lat²)"
		}
		t.AddRow(label, m.MLL.String(), fmt.Sprintf("%d", m.EdgeCut))
	}
	return t, nil
}

// AblationRefinement measures the partitioner's uncoarsening refinement on
// a synthetic power-law graph of the given size.
func AblationRefinement(nodes, parts int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(nodes)
	for i := 1; i < nodes; i++ {
		g.AddEdge(i, rng.Intn(i), int64(1+rng.Intn(8)), int64(1+rng.Intn(1_000_000)))
	}
	t := &Table{
		Title:   fmt.Sprintf("Ablation: boundary refinement (%d-node power-law graph, %d parts)", nodes, parts),
		Columns: []string{"Refinement", "Edge cut"},
	}
	for _, disable := range []bool{false, true} {
		part, err := partition.Partition(g, partition.Options{
			Parts: parts, Seed: seed, DisableRefinement: disable,
		})
		if err != nil {
			t.AddRow("error", err.Error())
			continue
		}
		label := "on"
		if disable {
			label = "off"
		}
		t.AddRow(label, fmt.Sprintf("%d", g.EvaluatePartition(part, parts).EdgeCut))
	}
	return t
}
