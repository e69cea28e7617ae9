package simcheck

import "testing"

// TestPlanLegsShareReferenceAndRuns: every leg taken from one plan diffs
// against the SAME reference observation, and the distributed leg's
// in-process run is the k-run Check made — nothing is executed twice.
func TestPlanLegsShareReferenceAndRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-leg oracle run skipped in -short")
	}
	sc := distScenario()
	sc.Ks = []int{2, 4}
	p := planOf(t, sc)
	check, err := p.Check()
	if err != nil {
		t.Fatal(err)
	}
	if check.Failed() {
		t.Fatalf("%s diverged", sc)
	}
	k4 := check.Runs[1]
	if k4.K != 4 || k4.Violations == nil {
		t.Fatalf("Runs[1] is k=%d, invariants armed=%v; want the armed k=4 run", k4.K, k4.Violations != nil)
	}
	distributed := fleet(t, p, 2, "")
	fluid, err := p.Fluid(DefaultFluidMinBytes, 0, DefaultFluidBudget())
	if err != nil {
		t.Fatal(err)
	}
	if fluid.Metrics == nil {
		t.Fatal("churn-free fluid leg computed no budget metrics")
	}
	for leg, ref := range map[string]*Observation{
		"Check": check.Ref, "distributed": distributed.Ref, "fluid packet": fluid.PacketRef,
	} {
		if ref != p.Ref {
			t.Errorf("%s leg holds its own reference, not the plan's", leg)
		}
	}
	if distributed.InProc != k4.Obs {
		t.Error("the distributed leg re-ran the in-process k=4 run Check already made")
	}
	// A standalone distributed plan keeps its in-process run un-instrumented
	// — and a Check that follows re-runs it armed rather than trusting it.
	q := planOf(t, sc)
	plain := fleet(t, q, 2, "").InProc
	if again, err := q.Check(); err != nil {
		t.Fatal(err)
	} else if again.Runs[1].Obs == plain || again.Runs[1].Violations == nil {
		t.Error("Check reused an in-process run made without the invariant hooks")
	}
}

// TestComposedSlicedChurnObserved is the dimensions composed through the
// one distributed entry point: a churn scenario, netmon attached, k=4
// sliced over two loopback workers — and still byte-identical to the plain
// (uninstrumented, sequential) reference of the same churn scenario.
func TestComposedSlicedChurnObserved(t *testing.T) {
	if testing.Short() {
		t.Skip("composed distributed run skipped in -short")
	}
	plain := Churn(distScenario())
	observed := plain
	observed.NetSample = 3
	rep := fleet(t, planOf(t, observed), 2, t.TempDir())
	if len(rep.Ref.FaultDrops) == 0 || len(rep.Dist.PathSpans) == 0 {
		t.Fatalf("degenerate composition: %d faults, %d sampled spans", len(rep.Ref.FaultDrops), len(rep.Dist.PathSpans))
	}
	for _, d := range Diff(planOf(t, plain).Ref, rep.Dist) {
		t.Errorf("sliced+churn+observed vs plain reference: %v", d)
	}
	if rep.Failed() {
		t.Errorf("composed leg failed against its own reference: in-process %v, sliced %v", rep.DivsInProc, rep.DivsDist)
	}
}
