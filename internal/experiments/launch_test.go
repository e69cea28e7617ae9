package experiments

import (
	"context"
	"errors"
	"testing"
	"time"

	"massf/internal/runspec"
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
	net, multi, err := sc.Network("")
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
