// Figure-by-figure reproduction: every table or figure in the paper's
// evaluation has a function here that regenerates its series.
package experiments

import (
	"context"
	"fmt"
	"slices"

	"massf/internal/cluster"
	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/metrics"
	"massf/internal/profile"
	"massf/internal/runspec"
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
	// Profile is the traffic profile every approach mapped from.
	Profile *profile.Profile
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

// Reduced returns the evaluation's two testbeds at the default
// laptop-friendly scale: the paper's ratios shrunk 10× (2,000 routers
// single-AS, 20 AS × 100 routers multi-AS, 1,000 hosts, 800 HTTP clients
// and 190 servers on 16 engines) and 8 s of simulated time.
func Reduced() (singleAS, multiAS Scenario) {
	return testbeds("reduced", Scenario{
		Flat:    &FlatSpec{Routers: 2000, Hosts: 1000},
		MultiAS: &MultiASSpec{ASes: 20, RoutersPerAS: 100, Hosts: 1000},
		Clients: 800, Servers: 190,
		RunSpec: runspec.RunSpec{Engines: 16, Seconds: 8, Seed: 1, EventCostUS: 15},
	})
}

// Paper returns the two testbeds at the paper's full scale: 20,000 routers
// (100 AS × 200 routers) with 10,000 hosts, 8,000 clients and 2,000
// servers on 90 engines, 30 s of simulated time. The packet simulation is
// the expensive part: minutes per testbed and gigabytes of memory.
func Paper() (singleAS, multiAS Scenario) {
	return testbeds("paper", Scenario{
		Flat:    &FlatSpec{Routers: 20000, Hosts: 10000},
		MultiAS: &MultiASSpec{ASes: 100, RoutersPerAS: 200, Hosts: 10000},
		Clients: 8000, Servers: 2000,
		RunSpec: runspec.RunSpec{Engines: 90, Seconds: 30, Seed: 1, EventCostUS: 15},
	})
}

// testbeds splits both's two topologies into the scale's single-AS and
// multi-AS scenarios, each running ScaLapack under HPROF, the paper's
// approach.
func testbeds(scale string, both Scenario) (singleAS, multiAS Scenario) {
	both.App, both.Approach = "scalapack", core.HPROF.String()
	singleAS, multiAS = both, both
	singleAS.Name, singleAS.MultiAS = scale+" single-AS", nil
	multiAS.Name, multiAS.Flat = scale+" multi-AS", nil
	return singleAS, multiAS
}

// Evaluate runs s's workload (its App) on st, a Setup s.Build returned,
// under every approach the figures compare: one traffic profile
// (s.TrafficProfile — the supplied one, else one profiling pass), then
// Map → Prepare → Run for each simulated approach and Map alone for the
// map-only ones, all from that profile. s.Approach is ignored: the profile
// is resolved as for HPROF and each row maps under its own approach. It
// writes nothing into st, so evaluations may share one Setup.
func Evaluate(s Scenario, st *Setup) (*Eval, error) {
	w, err := ParseWorkload(s.App)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	hprof := s
	hprof.Approach = core.HPROF.String()
	prof, err := hprof.TrafficProfile(ctx, st)
	if err != nil {
		return nil, err
	}
	ev := &Eval{Workload: w, Profile: prof}
	for _, a := range SimulatedApproaches {
		s.Approach = a.String()
		m, err := s.Map(st, prof)
		if err != nil {
			return nil, fmt.Errorf("%v/%v: %w", a, w, err)
		}
		p, err := s.Prepare(st, m, nil, Exec{})
		if err != nil {
			return nil, fmt.Errorf("%v/%v: %w", a, w, err)
		}
		out := p.Run(ctx)
		rounds := 0
		for _, app := range out.Apps {
			rounds += app.Rounds
		}
		ev.Rows = append(ev.Rows, Row{
			Approach: a, Simulated: true, MLL: m.MLL, Report: out.Report, AppRounds: rounds,
		})
		if a == core.HPROF {
			ev.Fig3 = out
		}
	}
	for _, a := range MapOnlyApproaches {
		s.Approach = a.String()
		m, err := s.Map(st, prof)
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

// approachTable is one of Figures 6–13: a row per workload, a column per
// approach, cell's rendering of that approach's row. Figure fig is the
// single-AS one; its multi-AS twin is fig+4.
func approachTable(evals []*Eval, multi bool, fig int, title string, approaches []core.Approach, cell func(*Row) string) *Table {
	if multi {
		fig += 4
	}
	t := &Table{Title: fmt.Sprintf("Figure %d: "+title, fig, netLabel(multi)), Columns: []string{"Workload"}}
	for _, a := range approaches {
		t.Columns = append(t.Columns, a.String())
	}
	for _, ev := range evals {
		row := []string{ev.Workload.String()}
		for _, a := range approaches {
			row = append(row, cell(ev.RowFor(a)))
		}
		t.AddRow(row...)
	}
	return t
}

// SimTimeTable regenerates Figure 6 (single-AS) / Figure 10 (multi-AS):
// application simulation time per approach and workload.
func SimTimeTable(evals []*Eval, multi bool) *Table {
	return approachTable(evals, multi, 6, "Simulation Time on %s (modeled seconds)", SimulatedApproaches,
		func(r *Row) string { return f2(r.Report.SimTimeSec) })
}

// MLLTable regenerates Figure 7 / Figure 11: achieved MLL per approach,
// including the map-only TOP and PROF.
func MLLTable(evals []*Eval, multi bool) *Table {
	return approachTable(evals, multi, 7, "Achieved MLL on %s (ms)", slices.Concat(SimulatedApproaches, MapOnlyApproaches),
		func(r *Row) string { return f3(r.MLL.Millis()) })
}

// ImbalanceTable regenerates Figure 8 / Figure 12: normalized load
// imbalance per approach.
func ImbalanceTable(evals []*Eval, multi bool) *Table {
	return approachTable(evals, multi, 8, "Load Imbalance on %s (normalized std dev)", SimulatedApproaches,
		func(r *Row) string { return f3(r.Report.Imbalance) })
}

// EfficiencyTable regenerates Figure 9 / Figure 13: parallel efficiency.
func EfficiencyTable(evals []*Eval, multi bool) *Table {
	return approachTable(evals, multi, 9, "Parallel Efficiency on %s", SimulatedApproaches,
		func(r *Row) string { return f3(r.Report.Efficiency) })
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
