package experiments

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"massf/internal/cluster"
	"massf/internal/core"
	"massf/internal/model"
	"massf/internal/runspec"
)

// tiny returns a single- or multi-AS scenario small enough for unit
// tests, running ScaLapack under HPROF.
func tiny(multi bool) Scenario {
	sc := Scenario{
		Approach: "HPROF", App: "scalapack", Clients: 80, Servers: 20,
		RunSpec: runspec.RunSpec{Engines: 4, Seconds: 2, Seed: 1},
	}
	if multi {
		sc.MultiAS = &MultiASSpec{ASes: 8, RoutersPerAS: 30, Hosts: 120}
	} else {
		sc.Flat = &FlatSpec{Routers: 300, Hosts: 120}
	}
	sc.Normalize()
	return sc
}

// TestScalesSane: both scales' testbeds are valid launch-path scenarios as
// they stand (no defaults filled in), one per topology kind, none
// degenerate; and each scale is the numbers EXPERIMENTS.md and the paper
// state, horizon included — the figure golden runs a shortened one.
func TestScalesSane(t *testing.T) {
	for _, scale := range []func() (Scenario, Scenario){Reduced, Paper} {
		single, multi := scale()
		for _, sc := range []Scenario{single, multi} {
			if err := sc.Validate(); err != nil {
				t.Errorf("%s: %v", sc.Name, err)
			}
			if sc.Engines <= 0 || sc.Seconds <= 0 {
				t.Errorf("%s: degenerate scale %+v", sc.Name, sc.RunSpec)
			}
		}
		if single.Flat == nil || multi.MultiAS == nil {
			t.Fatalf("%s / %s: wrong topology kinds", single.Name, multi.Name)
		}
		if single.Flat.Routers <= 0 {
			t.Errorf("%s: degenerate scale %+v", single.Name, *single.Flat)
		}
		if multi.MultiAS.ASes*multi.MultiAS.RoutersPerAS < multi.Engines {
			t.Errorf("%s: multi-AS router count below engine count", multi.Name)
		}
	}
	for _, c := range []struct {
		scale                  func() (Scenario, Scenario)
		routers, ases, engines int
		seconds                float64
	}{
		{Reduced, 2000, 20, 16, 8},
		{Paper, 20000, 100, 90, 30},
	} {
		single, multi := c.scale()
		if single.Flat.Routers != c.routers || multi.MultiAS.ASes != c.ases ||
			single.Engines != c.engines || multi.Engines != c.engines ||
			single.Seconds != c.seconds || multi.Seconds != c.seconds {
			t.Errorf("%s / %s drifted from %d routers, %d ASes, %d engines, %g s",
				single.Name, multi.Name, c.routers, c.ases, c.engines, c.seconds)
		}
	}
}

func TestBuildSingleASRoles(t *testing.T) {
	sc := tiny(false)
	st := buildScenario(t, &sc)
	checkRoles(t, &sc, st)
	if st.MultiAS {
		t.Error("single-AS setup flagged MultiAS")
	}
}

func TestBuildMultiASRoles(t *testing.T) {
	sc := tiny(true)
	st := buildScenario(t, &sc)
	checkRoles(t, &sc, st)
	if !st.MultiAS {
		t.Error("multi-AS setup not flagged")
	}
}

func checkRoles(t *testing.T, sc *Scenario, st *Setup) {
	t.Helper()
	if len(st.AppHosts) != sc.AppHosts() {
		t.Fatalf("app hosts = %d, want %d", len(st.AppHosts), sc.AppHosts())
	}
	if len(st.Clients) != sc.Clients || len(st.Servers) != sc.Servers {
		t.Fatalf("%d clients, %d servers; want the scenario's %d, %d",
			len(st.Clients), len(st.Servers), sc.Clients, sc.Servers)
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
	sc := tiny(false)
	st := buildScenario(t, &sc)
	prof, err := sc.TrafficProfile(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	if prof == nil || prof.TotalEvents() == 0 {
		t.Fatal("profiling produced no events")
	}
}

func TestEvaluateShape(t *testing.T) {
	sc := tiny(false)
	st := buildScenario(t, &sc)
	ev, err := Evaluate(sc, st)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Workload != ScaLapack || ev.Profile == nil || ev.Profile.TotalEvents() == 0 {
		t.Fatalf("eval of %v carries profile %v", ev.Workload, ev.Profile)
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
	tb := Fig5Table(cluster.DefaultTeraGrid())
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
	sc := tiny(true)
	sc.App = "gridnpb"
	st := buildScenario(t, &sc)
	ev, err := Evaluate(sc, st)
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
	sc := tiny(false)
	st := buildScenario(t, &sc)
	prof, err := sc.TrafficProfile(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	step, err := AblationTmllStep(sc, st, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(step.Rows) != 4 {
		t.Errorf("step rows = %d", len(step.Rows))
	}
	sel, err := AblationSelectionMetric(sc, st, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Rows) != 3 {
		t.Errorf("selection rows = %d", len(sel.Rows))
	}
	ew, err := AblationEdgeWeights(sc, st, prof)
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

// TestEvaluateSharesSetup: Evaluate writes nothing into the Setup, so the
// two workloads evaluated concurrently on one Setup each give exactly what
// a sequential evaluation gives, and the Setup's fields, role lists and
// network records are as Build left them (a write deeper down, into the
// router's tables, is the -race run's to catch).
func TestEvaluateSharesSetup(t *testing.T) {
	sc := tiny(false)
	sc.Seconds = 1
	st := buildScenario(t, &sc)
	before := setupState(st)
	apps := []string{"scalapack", "gridnpb"}
	evaluate := func(app string) *Eval {
		s := sc
		s.App = app
		ev, err := Evaluate(s, st)
		if err != nil {
			t.Error(err)
		}
		return ev
	}
	want := make([]*Eval, len(apps))
	for i, app := range apps {
		want[i] = evaluate(app)
	}
	got := make([]*Eval, len(apps))
	var wg sync.WaitGroup
	for i, app := range apps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = evaluate(app)
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := range apps {
		if !reflect.DeepEqual(figureRows(got[i]), figureRows(want[i])) ||
			!reflect.DeepEqual(got[i].Profile, want[i].Profile) ||
			!reflect.DeepEqual(got[i].Fig3.Result.LoadSeries, want[i].Fig3.Result.LoadSeries) {
			t.Errorf("%s evaluated concurrently differs from sequential", apps[i])
		}
	}
	if !reflect.DeepEqual(setupState(st), before) {
		t.Error("Evaluate wrote to the shared Setup")
	}
}

// setupState copies what of st an Evaluate could write: its fields, the
// role lists and the network's node, link and AS records.
func setupState(st *Setup) []any {
	return []any{*st,
		slices.Clone(st.Hosts), slices.Clone(st.AppHosts), slices.Clone(st.Clients), slices.Clone(st.Servers),
		slices.Clone(st.Net.Nodes), slices.Clone(st.Net.Links), slices.Clone(st.Net.ASes)}
}

// figureRows is e's rows without the host wall time.
func figureRows(e *Eval) []Row {
	rows := slices.Clone(e.Rows)
	for i := range rows {
		rows[i].Report.WallSec = 0
	}
	return rows
}
