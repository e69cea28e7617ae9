package simcheck

import (
	"testing"

	"massf/internal/des"
)

// TestFluidCheckPassesBudgetAndDeterminism is the hybrid-fidelity
// acceptance sweep in miniature: seeded scenarios run hybrid must be
// byte-identical across engine counts AND within the error budget of
// their pure-packet twins.
func TestFluidCheckPassesBudgetAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fluid oracle sweep skipped in -short")
	}
	for seed := int64(1); seed <= 4; seed++ {
		sc := NewScenario(seed)
		sc.Ks = []int{2, 4}
		rep, err := planOf(t, sc).Fluid(DefaultFluidMinBytes, 0, DefaultFluidBudget())
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if rep.FluidFlows == 0 {
			t.Fatalf("%s: no scripted transfer crossed the fluidization threshold", sc)
		}
		if rep.HybridRef.FluidCompleted == 0 {
			t.Fatalf("%s: no fluid flow completed", sc)
		}
		for i := range rep.Runs {
			kr := &rep.Runs[i]
			for _, v := range kr.Violations {
				t.Errorf("%s k=%d: invariant violation: %v", sc, kr.K, v)
			}
			for _, d := range kr.Divergences {
				t.Errorf("%s k=%d: hybrid divergence: %v", sc, kr.K, d)
			}
		}
		if len(rep.Metrics) == 0 {
			t.Fatalf("%s: churn-free check computed no budget metrics", sc)
		}
		for _, m := range rep.Metrics {
			if !m.OK {
				t.Errorf("%s: over budget: %v", sc, m)
			}
		}
	}
}

// TestFluidChurnDeterminism pins hybrid × faults: a churn scenario run
// hybrid reconverges identically on every engine count (the N=1 ≡ N=k
// determinism test for the fault-aware fluid timeline). The budget is
// deliberately not enforced — what churn pins is engine-count
// independence, including the fluid plane's stall/reroute behavior.
func TestFluidChurnDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fluid churn sweep skipped in -short")
	}
	for seed := int64(1); seed <= 3; seed++ {
		sc := Churn(NewScenario(seed))
		sc.Ks = []int{2, 4}
		rep, err := planOf(t, sc).Fluid(DefaultFluidMinBytes, 0, DefaultFluidBudget())
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if rep.Metrics != nil {
			t.Fatalf("%s: churn scenario must skip the budget", sc)
		}
		for i := range rep.Runs {
			kr := &rep.Runs[i]
			for _, v := range kr.Violations {
				t.Errorf("%s k=%d: invariant violation: %v", sc, kr.K, v)
			}
			for _, d := range kr.Divergences {
				t.Errorf("%s k=%d: hybrid churn divergence: %v", sc, kr.K, d)
			}
		}
	}
}

// TestFluidQuantumDeterminism: quantum-batched rate recomputation is an
// approximation of the exact solve, but it must be the SAME
// approximation everywhere — byte-identical across engine counts.
func TestFluidQuantumDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fluid quantum sweep skipped in -short")
	}
	sc := NewScenario(2)
	sc.Ks = []int{2, 4}
	rep, err := planOf(t, sc).Fluid(DefaultFluidMinBytes, int64(des.Millisecond), DefaultFluidBudget())
	if err != nil {
		t.Fatal(err)
	}
	if rep.FluidFlows == 0 {
		t.Fatal("no fluid flows")
	}
	for i := range rep.Runs {
		for _, d := range rep.Runs[i].Divergences {
			t.Errorf("k=%d: quantum hybrid divergence: %v", rep.Runs[i].K, d)
		}
	}
}

// TestFluidDistributed: the hybrid run split across loopback-TCP workers
// (each builds only its slice, yet precomputes the identical fluid plane
// over an unscoped router) matches the sequential hybrid reference byte
// for byte, fluid counters included — under fault churn too, where the
// plane is built against a fault plane of its own. Seed 2's faults move
// fluid completions, so a worker plane built without them diverges.
func TestFluidDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed fluid run skipped in -short")
	}
	seeded := Churn(Fluid(NewScenario(2)))
	seeded.Ks = []int{4}
	for _, sc := range []Scenario{Fluid(distScenario()), Churn(Fluid(distScenario())), seeded} {
		rep := fleet(t, planOf(t, sc), 2, "")
		if rep.Dist.FluidStarted == 0 || rep.Dist.FluidCompleted == 0 {
			t.Fatalf("%s: degenerate hybrid run: started=%d completed=%d",
				sc, rep.Dist.FluidStarted, rep.Dist.FluidCompleted)
		}
		if sc.ChurnEvents > 0 && len(rep.Dist.FaultDrops) == 0 {
			t.Fatalf("%s: workers compiled no fault plane", sc)
		}
		for _, d := range rep.DivsInProc {
			t.Errorf("%s in-process k=4: %v", sc, d)
		}
		for _, d := range rep.DivsDist {
			t.Errorf("%s distributed: %v", sc, d)
		}
	}
}

// TestFluidMergeObservations covers the fluid-field merge rules: counters
// and link volumes sum, FluidLastCompletion takes the max.
func TestFluidMergeObservations(t *testing.T) {
	a := &Observation{
		TCPDone: []des.Time{1}, TCPRecv: []des.Time{1}, UDPRecv: []des.Time{},
		NodeEvents: []uint64{1}, LinkBits: []uint64{8}, LinkDrops: []uint64{0},
		FluidStarted: 2, FluidCompleted: 1, FluidDeliveredBits: 100,
		FluidLastCompletion: 5, FluidLinkBits: []uint64{40, 0},
	}
	b := &Observation{
		TCPDone: []des.Time{0}, TCPRecv: []des.Time{0}, UDPRecv: []des.Time{},
		NodeEvents: []uint64{2}, LinkBits: []uint64{4}, LinkDrops: []uint64{0},
		FluidStarted: 1, FluidCompleted: 2, FluidDeliveredBits: 50,
		FluidLastCompletion: 9, FluidLinkBits: []uint64{0, 60},
	}
	m, err := MergeObservations([]*Observation{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if m.FluidStarted != 3 || m.FluidCompleted != 3 || m.FluidDeliveredBits != 150 {
		t.Fatalf("fluid counters merged wrong: %+v", m)
	}
	if m.FluidLastCompletion != 9 {
		t.Fatalf("FluidLastCompletion = %v, want 9", m.FluidLastCompletion)
	}
	if m.FluidLinkBits[0] != 40 || m.FluidLinkBits[1] != 60 {
		t.Fatalf("FluidLinkBits = %v", m.FluidLinkBits)
	}
}
