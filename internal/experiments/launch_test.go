package experiments

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"massf/internal/core"
	"massf/internal/dml"
	"massf/internal/model"
	"massf/internal/runspec"
	"massf/internal/topology"
)

// launchScenario is a small flat scenario; seconds sets the horizon.
func launchScenario(approach string, seconds float64) Scenario {
	sc := Scenario{
		Flat:     &FlatSpec{Routers: 60, Hosts: 24},
		Approach: approach,
		App:      "scalapack",
		RunSpec:  runspec.RunSpec{Engines: 2, Seconds: seconds, Seed: 5},
	}
	sc.Normalize()
	return sc
}

func buildScenario(t *testing.T, sc *Scenario) *Setup {
	t.Helper()
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	net, multi, err := sc.Network()
	if err != nil {
		t.Fatal(err)
	}
	st, err := sc.Build(net, multi, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestLaunchSharedSetupIsNotWritten: the Setup a scenario builds is shared
// between runs (runctl caches it), so no later step may write to it — not
// the per-run knobs, and not the profile a profiling pass measures.
func TestLaunchSharedSetupIsNotWritten(t *testing.T) {
	sc := launchScenario("HPROF", 0.5)
	st := buildScenario(t, &sc)
	before := st.Scale

	other := sc
	other.Engines, other.Seconds = 4, 0.25
	ctx := context.Background()
	prof, err := other.TrafficProfile(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if prof == nil || prof.TotalEvents() == 0 {
		t.Fatalf("HPROF scenario without a supplied profile measured none: %+v", prof)
	}
	m, err := other.Map(st, prof)
	if err != nil {
		t.Fatal(err)
	}
	p, err := other.Prepare(st, m, nil, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	out := p.Run(ctx)
	if got := out.Result.Engines; got != 4 {
		t.Fatalf("run executed on %d engines, want the scenario's 4", got)
	}
	if out.Result.TotalEvents == 0 || out.Report.Approach != "HPROF" || out.Captured == nil || out.HTTP == nil {
		t.Fatalf("outcome incomplete: %+v", out)
	}
	if st.Scale != before || st.Profile != nil {
		t.Fatalf("launch steps wrote to the shared Setup: scale %+v → %+v, profile %v", before, st.Scale, st.Profile)
	}

	// An approach that needs no profile asks for none.
	top := launchScenario("TOP2", 0.5)
	if prof, err := top.TrafficProfile(ctx, st); err != nil || prof != nil {
		t.Fatalf("TOP2 resolved a profile: %v, %v", prof, err)
	}
}

// TestLaunchProfilingPassStopsAtBarrier: cancelling the context stops the
// profiling pass at a barrier and surfaces the context's error. The
// horizon is an hour of simulated time, so a pass that ignored the
// context would not return within the test's lifetime.
func TestLaunchProfilingPassStopsAtBarrier(t *testing.T) {
	sc := launchScenario("HPROF", 3600)
	st := buildScenario(t, &sc)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	prof, err := sc.TrafficProfile(ctx, st)
	if !errors.Is(err, context.Canceled) || prof != nil {
		t.Fatalf("cancelled profiling pass returned (%v, %v), want (nil, context.Canceled)", prof, err)
	}
}

// TestLaunchOversizedRolesShrink: asking for more clients or servers than
// the network has free hosts shrinks the roles to fit instead of failing —
// the same spec reaches Build through massfd's POST /api/v1/runs.
func TestLaunchOversizedRolesShrink(t *testing.T) {
	for _, c := range []struct {
		name             string
		clients, servers int
	}{
		{"clients over", 100, 0},
		{"servers over", 0, 100},
		{"both over", 100, 100},
	} {
		sc := Scenario{Flat: &FlatSpec{Routers: 40, Hosts: 16}, Clients: c.clients, Servers: c.servers}
		sc.Normalize()
		st := buildScenario(t, &sc)
		free := len(st.Hosts) - len(st.AppHosts)
		if got := len(st.Clients) + len(st.Servers); got == 0 || got > free {
			t.Errorf("%s: %d clients + %d servers, want 1..%d", c.name, len(st.Clients), len(st.Servers), free)
		}
		roles := map[model.NodeID]bool{}
		for _, h := range slices.Concat(st.AppHosts, st.Clients, st.Servers) {
			if roles[h] {
				t.Errorf("%s: host %d holds two roles", c.name, h)
			}
			roles[h] = true
		}
	}
}

// TestLaunchDMLNetworkValidated: a DML topology with a zero-latency link
// fails Network, naming the link, instead of reaching the mapper, whose
// latency weights divide by it.
func TestLaunchDMLNetworkValidated(t *testing.T) {
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 40, Hosts: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net.Links[3].Latency = 0
	var sb strings.Builder
	if err := dml.WriteNetwork(&sb, net); err != nil {
		t.Fatal(err)
	}
	sc := Scenario{DML: sb.String(), Approach: "TOP2", RunSpec: runspec.RunSpec{Engines: 2, Seconds: 1}}
	sc.Normalize()
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.Network(); err == nil || !strings.Contains(err.Error(), "link 3 has non-positive latency 0") {
		t.Fatalf("Network returned %v, want the zero-latency link named", err)
	}
}

// TestLaunchSuppliedProfileShape: a supplied profile replaces the pass and
// must match the network it is applied to.
func TestLaunchSuppliedProfileShape(t *testing.T) {
	sc := launchScenario("HPROF", 0.5)
	st := buildScenario(t, &sc)
	sc.Profile = "massf-profile v1\nhorizon 1\nnodes 1\nlinks 1\nn 0 5\n"
	if _, err := sc.TrafficProfile(context.Background(), st); err == nil {
		t.Fatal("profile of the wrong shape accepted")
	}
}

// TestLaunchPlaceSeesAppHosts: PLACE on the launch path boosts the
// scenario's application hosts, so on a ScaLapack scenario its partition
// differs from TOP's, while TOP maps exactly as core.Map does without
// them. A scenario that runs no application has no hosts to place.
func TestLaunchPlaceSeesAppHosts(t *testing.T) {
	parts := map[string][]int32{}
	var st *Setup
	for _, a := range []string{"TOP", "PLACE"} {
		sc := launchScenario(a, 0.5)
		sc.Engines = 4
		if st == nil {
			st = buildScenario(t, &sc)
		}
		m, err := sc.Map(st, nil)
		if err != nil {
			t.Fatal(err)
		}
		parts[a] = m.Part
	}
	if slices.Equal(parts["TOP"], parts["PLACE"]) {
		t.Fatal("PLACE mapped exactly as TOP: the application hosts never reached the mapper")
	}
	top, err := core.Map(st.Net, core.TOP, core.Config{Engines: 4, Sync: st.Sync, Seed: st.Scale.Seed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(parts["TOP"], top.Part) {
		t.Fatal("TOP through Scenario.Map differs from core.Map(TOP)")
	}

	sc := launchScenario("PLACE", 0.5)
	sc.App = "none"
	err = sc.Validate()
	if err == nil || !strings.Contains(err.Error(), "PLACE") || !strings.Contains(err.Error(), `app "none"`) {
		t.Fatalf("PLACE with app none: err = %v", err)
	}
}

// TestLaunchHybridLinkReportMatchesFluidBits: the link report's fluid
// volume is the plane's, slow start included. On this scenario every
// fluid flow finishes within slow start, so its whole volume is lumps and
// none of it is rate timeline.
func TestLaunchHybridLinkReportMatchesFluidBits(t *testing.T) {
	sc := Scenario{
		Flat:     &FlatSpec{Routers: 60, Hosts: 24},
		Approach: "TOP2",
		App:      "scalapack",
		RunSpec: runspec.RunSpec{Engines: 2, Seconds: 1, Seed: 7,
			NetMon: true, FlowFidelity: runspec.FidelityHybrid},
	}
	sc.Normalize()
	st := buildScenario(t, &sc)
	m, err := sc.Map(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sc.Prepare(st, m, nil, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	res := p.Run(context.Background()).Result
	if res.FluidCompleted == 0 {
		t.Fatal("no fluid flow completed: the scenario no longer exercises the fold")
	}
	rep := p.NetMon().LinkReport(0, false)
	got := make([]uint64, len(res.FluidLinkBits))
	for _, d := range rep.Links {
		got[d.Link] += d.FluidBits
	}
	// Each folded piece (a rate segment's share of one bucket, a lump) and
	// each direction's DirBits truncates to whole bits once.
	plane := p.Sim.Config().Fluid
	var carried uint64
	for l, want := range res.FluidLinkBits {
		var pieces uint64
		for d := 2 * l; d < 2*l+2; d++ {
			pieces += uint64(len(plane.DirSegments(d)) + rep.Buckets + len(plane.DirLumps(d)) + 1)
		}
		if diff := int64(got[l]) - int64(want); diff > int64(pieces) || -diff > int64(pieces) {
			t.Errorf("link %d: report carries %d fluid bits, the result %d (tolerance %d)", l, got[l], want, pieces)
		}
		carried += want
	}
	if carried == 0 {
		t.Fatal("the fluid plane carried nothing")
	}
}

// TestWarmPrepareAllocBudget is a count-based gate on a run's build,
// immune to host load the way core's TestMapAllocBudget is: the bytes a
// Prepare allocates for the service benchmark's scenario (flat 300 routers
// / 60 hosts, HTOP, k=2, 0.5 s, background HTTP only), both the first on a
// fresh Setup and a warm one on a Setup already used. When every Prepare
// seeded a math/rand source per client (47 × 5.4 KB), a warm Prepare
// allocated parentBytes; the gate is half of it. Each client's stream is
// now two words, seeded in O(1), so a cold Prepare costs what a warm one
// does and answers to the same gate.
func TestWarmPrepareAllocBudget(t *testing.T) {
	const parentBytes = 481_880
	for _, c := range []struct {
		name string
		warm bool
	}{{"cold", false}, {"warm", true}} {
		t.Run(c.name, func(t *testing.T) {
			sc := Scenario{
				Flat:     &FlatSpec{Routers: 300, Hosts: 60},
				Approach: "HTOP",
				RunSpec:  runspec.RunSpec{Engines: 2, Seconds: 0.5, Seed: 5},
			}
			sc.Normalize()
			st := buildScenario(t, &sc)
			m, err := sc.Map(st, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.warm {
				if _, err := sc.Prepare(st, m, nil, Exec{}); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			p, err := sc.Prepare(st, m, nil, Exec{})
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			got := m1.TotalAlloc - m0.TotalAlloc
			t.Logf("%s Prepare allocated %d bytes for %d HTTP clients", c.name, got, len(p.HTTP.Requests))
			if got > parentBytes/2 {
				t.Errorf("%s Prepare allocated %d bytes, budget %d", c.name, got, parentBytes/2)
			}
		})
	}
}
