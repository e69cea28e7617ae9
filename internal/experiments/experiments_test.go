package experiments

import (
	"strings"
	"testing"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/model"
)

// tiny returns a scale small enough for unit tests.
func tiny() Scale {
	return Scale{
		Name:         "tiny",
		Routers:      300,
		ASes:         8,
		RoutersPerAS: 30,
		Hosts:        120,
		Clients:      80,
		Servers:      20,
		AppHosts:     7,
		Engines:      4,
		Horizon:      2 * des.Second,
		EventCost:    15 * des.Microsecond,
		Seed:         1,
	}
}

func TestScalesSane(t *testing.T) {
	for _, sc := range []Scale{Reduced(), Paper()} {
		if sc.Routers <= 0 || sc.Engines <= 0 || sc.Horizon <= 0 {
			t.Errorf("%s: degenerate scale %+v", sc.Name, sc)
		}
		if sc.ASes*sc.RoutersPerAS < sc.Engines {
			t.Errorf("%s: multi-AS router count below engine count", sc.Name)
		}
	}
	if Paper().Routers != 20000 || Paper().ASes != 100 || Paper().Engines != 90 {
		t.Error("paper scale drifted from the paper's numbers")
	}
}

func TestBuildSingleASRoles(t *testing.T) {
	st, err := BuildSingleAS(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkRoles(t, st)
	if st.MultiAS {
		t.Error("single-AS setup flagged MultiAS")
	}
}

func TestBuildMultiASRoles(t *testing.T) {
	st, err := BuildMultiAS(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkRoles(t, st)
	if !st.MultiAS {
		t.Error("multi-AS setup not flagged")
	}
}

func checkRoles(t *testing.T, st *Setup) {
	t.Helper()
	if len(st.AppHosts) != st.Scale.AppHosts {
		t.Fatalf("app hosts = %d, want %d", len(st.AppHosts), st.Scale.AppHosts)
	}
	seen := map[model.NodeID]string{}
	for _, h := range st.AppHosts {
		seen[h] = "app"
	}
	for _, h := range st.Clients {
		if r, ok := seen[h]; ok {
			t.Fatalf("host %d is both %s and client", h, r)
		}
		seen[h] = "client"
	}
	for _, h := range st.Servers {
		if r, ok := seen[h]; ok {
			t.Fatalf("host %d is both %s and server", h, r)
		}
		seen[h] = "server"
	}
	for h := range seen {
		if st.Net.Nodes[h].Kind != model.Host {
			t.Fatalf("role node %d is not a host", h)
		}
	}
	if len(st.Clients) == 0 || len(st.Servers) == 0 {
		t.Fatal("no clients or servers assigned")
	}
}

func TestProfilingFillsProfile(t *testing.T) {
	st, err := BuildSingleAS(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RunProfiling(ScaLapack); err != nil {
		t.Fatal(err)
	}
	if st.Profile == nil || st.Profile.TotalEvents() == 0 {
		t.Fatal("profiling produced no events")
	}
}

func TestEvaluateShape(t *testing.T) {
	st, err := BuildSingleAS(tiny())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(st, ScaLapack)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Rows) != len(SimulatedApproaches)+len(MapOnlyApproaches) {
		t.Fatalf("rows = %d", len(ev.Rows))
	}
	for _, a := range SimulatedApproaches {
		r := ev.RowFor(a)
		if r == nil || !r.Simulated {
			t.Fatalf("%v missing or not simulated", a)
		}
		if r.Report.SimTimeSec <= 0 || r.Report.TotalEvents == 0 || r.Report.Efficiency <= 0 {
			t.Fatalf("%v: empty report %+v", a, r.Report)
		}
		if r.AppRounds == 0 {
			t.Errorf("%v: application made no rounds", a)
		}
	}
	for _, a := range MapOnlyApproaches {
		r := ev.RowFor(a)
		if r == nil || r.Simulated {
			t.Fatalf("%v missing or unexpectedly simulated", a)
		}
		if r.MLL <= 0 {
			t.Fatalf("%v: no MLL", a)
		}
	}
	// The paper's central claim at any scale: hierarchical MLL beats the
	// flat approaches' MLL.
	if ev.RowFor(core.HPROF).MLL <= ev.RowFor(core.PROF).MLL {
		t.Errorf("HPROF MLL %v not above PROF MLL %v",
			ev.RowFor(core.HPROF).MLL, ev.RowFor(core.PROF).MLL)
	}
	if ev.Fig3 == nil {
		t.Fatal("Fig3 outcome not retained")
	}
	// The profiled HPROF run carries the background HTTP load to completion
	// beside the application.
	if ev.Fig3.Result.FlowsCompleted == 0 || ev.Fig3.HTTP.TotalResponses() == 0 {
		t.Errorf("HPROF run completed %d flows, %d HTTP responses",
			ev.Fig3.Result.FlowsCompleted, ev.Fig3.HTTP.TotalResponses())
	}

	// All tables render without panicking and carry the workload row.
	evals := []*Eval{ev}
	for _, tb := range []*Table{
		SimTimeTable(evals, false), MLLTable(evals, false),
		ImbalanceTable(evals, false), EfficiencyTable(evals, false),
		HeadlineTable(evals, false), Fig3Table(ev.Fig3),
	} {
		s := tb.String()
		if !strings.Contains(s, "\n") || len(tb.Rows) == 0 {
			t.Errorf("table %q empty:\n%s", tb.Title, s)
		}
	}
	if hs := Headlines(evals); len(hs) != 1 || hs[0].Workload != ScaLapack {
		t.Errorf("headlines wrong: %+v", hs)
	}
}

func TestFig5TableShape(t *testing.T) {
	tb := Fig5Table(DefaultSync())
	if len(tb.Rows) < 8 {
		t.Fatalf("Fig5 rows = %d", len(tb.Rows))
	}
	if !strings.Contains(tb.String(), "Figure 5") {
		t.Error("title missing")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a", "bb"}}
	tb.AddRow("xxx", "y")
	s := tb.String()
	for _, want := range []string{"T\n", "a", "bb", "xxx", "---"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestEvaluateMultiAS(t *testing.T) {
	st, err := BuildMultiAS(tiny())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(st, GridNPB)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range SimulatedApproaches {
		r := ev.RowFor(a)
		if r == nil || r.Report.TotalEvents == 0 {
			t.Fatalf("%v: no data", a)
		}
	}
	// BGP policy routing is active: the interdomain router must have a
	// RIB (indirectly verified through traffic flowing between stub ASes).
	if ev.RowFor(core.HPROF).Report.TotalEvents < 1000 {
		t.Error("suspiciously little traffic crossed the multi-AS network")
	}
	// Tables render.
	evals := []*Eval{ev}
	if len(SimTimeTable(evals, true).Rows) != 1 {
		t.Error("multi-AS table wrong")
	}
}

func TestAblations(t *testing.T) {
	st, err := BuildSingleAS(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RunProfiling(ScaLapack); err != nil {
		t.Fatal(err)
	}
	step, err := AblationTmllStep(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(step.Rows) != 4 {
		t.Errorf("step rows = %d", len(step.Rows))
	}
	sel, err := AblationSelectionMetric(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Rows) != 3 {
		t.Errorf("selection rows = %d", len(sel.Rows))
	}
	ew, err := AblationEdgeWeights(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(ew.Rows) != 2 {
		t.Errorf("edge-weight rows = %d", len(ew.Rows))
	}
	ref := AblationRefinement(2000, 8, 1)
	if len(ref.Rows) != 2 {
		t.Errorf("refinement rows = %d", len(ref.Rows))
	}
	for _, s := range []string{step.String(), sel.String(), ew.String(), ref.String()} {
		if len(s) < 40 {
			t.Error("empty ablation table")
		}
	}
}
