// Figure-by-figure reproduction: every table or figure in the paper's
// evaluation has a function here that regenerates its series.
package experiments

import (
	"fmt"

	"massf/internal/cluster"
	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/metrics"
)

// SimulatedApproaches are the mappings the paper executes end to end in
// Figures 6–13 (legend order).
var SimulatedApproaches = []core.Approach{core.HPROF, core.PROF2, core.HTOP, core.TOP2}

// MapOnlyApproaches are shown only in the achieved-MLL figures (7 and 11):
// the paper reports that their simulations "cannot be completed in a
// reasonable time limit".
var MapOnlyApproaches = []core.Approach{core.PROF, core.TOP}

// Row is one approach's outcome under one workload.
type Row struct {
	Approach  core.Approach
	Simulated bool
	MLL       des.Time
	Report    metrics.Report
	AppRounds int
}

// Eval is the full outcome of one workload on one testbed.
type Eval struct {
	Workload Workload
	Rows     []Row
	// Fig3 retains the HPROF run's load series for Figure 3.
	Fig3 *RunOutcome
}

// RowFor returns the row of approach a.
func (e *Eval) RowFor(a core.Approach) *Row {
	for i := range e.Rows {
		if e.Rows[i].Approach == a {
			return &e.Rows[i]
		}
	}
	return nil
}

// Evaluate profiles the workload, then runs every simulated approach end to
// end and maps the map-only approaches, returning the figure rows.
func Evaluate(st *Setup, w Workload) (*Eval, error) {
	st.Profile = nil
	if err := st.RunProfiling(w); err != nil {
		return nil, err
	}
	ev := &Eval{Workload: w}
	for _, a := range SimulatedApproaches {
		out, err := st.RunMapping(a, w)
		if err != nil {
			return nil, fmt.Errorf("%v/%v: %w", a, w, err)
		}
		rounds := 0
		for _, app := range out.Apps {
			rounds += app.Rounds
		}
		ev.Rows = append(ev.Rows, Row{
			Approach: a, Simulated: true, MLL: out.Mapping.MLL, Report: out.Report, AppRounds: rounds,
		})
		if a == core.HPROF {
			ev.Fig3 = out
		}
	}
	for _, a := range MapOnlyApproaches {
		m, err := st.MapApproach(a)
		if err != nil {
			return nil, err
		}
		ev.Rows = append(ev.Rows, Row{Approach: a, MLL: m.MLL})
	}
	return ev, nil
}

// netLabel names the testbed in table titles.
func netLabel(multi bool) string {
	if multi {
		return "Multi-AS"
	}
	return "Single-AS"
}

// SimTimeTable regenerates Figure 6 (single-AS) / Figure 10 (multi-AS):
// application simulation time per approach and workload.
func SimTimeTable(evals []*Eval, multi bool) *Table {
	fig := "Figure 6"
	if multi {
		fig = "Figure 10"
	}
	t := &Table{
		Title:   fmt.Sprintf("%s: Simulation Time on %s (modeled seconds)", fig, netLabel(multi)),
		Columns: []string{"Workload", "HPROF", "PROF2", "HTOP", "TOP2"},
	}
	for _, ev := range evals {
		row := []string{ev.Workload.String()}
		for _, a := range SimulatedApproaches {
			row = append(row, f2(ev.RowFor(a).Report.SimTimeSec))
		}
		t.AddRow(row...)
	}
	return t
}

// MLLTable regenerates Figure 7 / Figure 11: achieved MLL per approach,
// including the map-only TOP and PROF.
func MLLTable(evals []*Eval, multi bool) *Table {
	fig := "Figure 7"
	if multi {
		fig = "Figure 11"
	}
	t := &Table{
		Title:   fmt.Sprintf("%s: Achieved MLL on %s (ms)", fig, netLabel(multi)),
		Columns: []string{"Workload", "HPROF", "PROF2", "HTOP", "TOP2", "PROF", "TOP"},
	}
	order := []core.Approach{core.HPROF, core.PROF2, core.HTOP, core.TOP2, core.PROF, core.TOP}
	for _, ev := range evals {
		row := []string{ev.Workload.String()}
		for _, a := range order {
			row = append(row, f3(ev.RowFor(a).MLL.Millis()))
		}
		t.AddRow(row...)
	}
	return t
}

// ImbalanceTable regenerates Figure 8 / Figure 12: normalized load
// imbalance per approach.
func ImbalanceTable(evals []*Eval, multi bool) *Table {
	fig := "Figure 8"
	if multi {
		fig = "Figure 12"
	}
	t := &Table{
		Title:   fmt.Sprintf("%s: Load Imbalance on %s (normalized std dev)", fig, netLabel(multi)),
		Columns: []string{"Workload", "HPROF", "PROF2", "HTOP", "TOP2"},
	}
	for _, ev := range evals {
		row := []string{ev.Workload.String()}
		for _, a := range SimulatedApproaches {
			row = append(row, f3(ev.RowFor(a).Report.Imbalance))
		}
		t.AddRow(row...)
	}
	return t
}

// EfficiencyTable regenerates Figure 9 / Figure 13: parallel efficiency.
func EfficiencyTable(evals []*Eval, multi bool) *Table {
	fig := "Figure 9"
	if multi {
		fig = "Figure 13"
	}
	t := &Table{
		Title:   fmt.Sprintf("%s: Parallel Efficiency on %s", fig, netLabel(multi)),
		Columns: []string{"Workload", "HPROF", "PROF2", "HTOP", "TOP2"},
	}
	for _, ev := range evals {
		row := []string{ev.Workload.String()}
		for _, a := range SimulatedApproaches {
			row = append(row, f3(ev.RowFor(a).Report.Efficiency))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig5Table regenerates Figure 5: the synchronization cost of the modeled
// TeraGrid cluster by engine-node count.
func Fig5Table(m cluster.SyncCostModel) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 5: Synchronization Cost (%s)", m.Name()),
		Columns: []string{"Nodes", "Cost (µs)"},
	}
	nodes, cost := cluster.Fig5Points(m)
	for i := range nodes {
		t.AddRow(fmt.Sprintf("%d", nodes[i]), fmt.Sprintf("%.0f", cost[i]))
	}
	return t
}

// Fig3Table regenerates Figure 3: load variation over the lifetime of the
// simulation — per time bucket, the min/mean/max engine event counts (the
// paper plots every node's curve; min/mean/max summarizes the spread in
// text form).
func Fig3Table(out *RunOutcome) *Table {
	t := &Table{
		Title:   "Figure 3: Load Variation over the Lifetime of Simulation (events per engine per bucket)",
		Columns: []string{"t (s)", "min", "mean", "max"},
	}
	// Subsample long series to ≤ 40 printed rows.
	stride := (len(out.Result.LoadSeries) + 39) / 40
	if stride < 1 {
		stride = 1
	}
	for b, loads := range out.Result.LoadSeries {
		if len(loads) == 0 || b%stride != 0 {
			continue
		}
		min, max, sum := loads[0], loads[0], uint64(0)
		for _, v := range loads {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
			sum += v
		}
		at := float64(b) * out.Result.BucketWidth.Seconds()
		t.AddRow(f2(at), fmt.Sprintf("%d", min), fmt.Sprintf("%d", sum/uint64(len(loads))), fmt.Sprintf("%d", max))
	}
	return t
}

// Headline summarizes the paper's headline claims from a pair of evals:
// HPROF improves load imbalance (vs HTOP) and reduces simulation time (vs
// TOP2), and reaches the stated parallel efficiency.
type Headline struct {
	Workload           Workload
	ImbalanceImprove   float64 // HPROF vs HTOP (paper: ≈31–40% multi-AS)
	SimTimeReduction   float64 // HPROF vs TOP2 (paper: ≈40–50%)
	ProfVsTopImbalance float64 // PROF2 vs TOP2 (paper: 7% single-AS, 15% multi-AS)
	HPROFEfficiency    float64 // paper: ≈0.40
	EfficiencyGain     float64 // HPROF vs TOP2 PE (paper: ≈64%)
}

// Headlines derives the claims for each workload.
func Headlines(evals []*Eval) []Headline {
	var out []Headline
	for _, ev := range evals {
		hprof := ev.RowFor(core.HPROF).Report
		htop := ev.RowFor(core.HTOP).Report
		top2 := ev.RowFor(core.TOP2).Report
		prof2 := ev.RowFor(core.PROF2).Report
		out = append(out, Headline{
			Workload:           ev.Workload,
			ImbalanceImprove:   metrics.Improvement(htop.Imbalance, hprof.Imbalance),
			SimTimeReduction:   metrics.Improvement(top2.SimTimeSec, hprof.SimTimeSec),
			ProfVsTopImbalance: metrics.Improvement(top2.Imbalance, prof2.Imbalance),
			HPROFEfficiency:    hprof.Efficiency,
			EfficiencyGain:     metrics.Improvement(1/hprof.Efficiency, 1/top2.Efficiency) * -1,
		})
	}
	return out
}

// HeadlineTable renders the headline claims.
func HeadlineTable(evals []*Eval, multi bool) *Table {
	t := &Table{
		Title: fmt.Sprintf("Headline claims on %s (paper: −40%% imbalance, −50%% sim time, PE ≈ 0.40)",
			netLabel(multi)),
		Columns: []string{"Workload", "Imbalance HPROF<HTOP", "SimTime HPROF<TOP2", "Imb PROF2<TOP2", "PE(HPROF)"},
	}
	for _, h := range Headlines(evals) {
		t.AddRow(h.Workload.String(),
			fmt.Sprintf("%.0f%%", h.ImbalanceImprove*100),
			fmt.Sprintf("%.0f%%", h.SimTimeReduction*100),
			fmt.Sprintf("%.0f%%", h.ProfVsTopImbalance*100),
			f3(h.HPROFEfficiency))
	}
	return t
}
