package simcheck

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"
)

// TestObservationDigestGolden pins every observable of the reference runs,
// not only the event counts sweep.golden prints: the FNV-64a of each
// reference Observation's JSON — per-node, per-link, per-flow and per-fault
// slices and the sampled PathSpans included — for seeds 1–6 in four
// variants, plus the merged observation of one k=4 fleet. Any change to how a scenario is built, traffic installed or a
// run observed moves a digest.
func TestObservationDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("observation digest sweep skipped in -short")
	}
	var got strings.Builder
	line := func(label string, obs *Observation) {
		b, err := json.Marshal(obs)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(b)
		fmt.Fprintf(&got, "%s %016x\n", label, h.Sum64())
	}
	variants := []struct {
		name string
		of   func(Scenario) Scenario
	}{
		{"plain", func(sc Scenario) Scenario { return sc }},
		{"churn", Churn},
		{"fluid", Fluid},
		{"netsample4", func(sc Scenario) Scenario { sc.NetSample = 4; return sc }},
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, v := range variants {
			line(fmt.Sprintf("seed=%d %s", seed, v.name), planOf(t, v.of(NewScenario(seed))).Ref)
		}
	}
	sc := Churn(distScenario())
	sc.NetSample = 4
	p := planOf(t, sc)
	line("fleet sliced k=4 workers=2", fleet(t, p, 2, t.TempDir()).Dist)

	want, err := os.ReadFile("testdata/observations.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("observation digests changed\n--- got\n%s--- want\n%s", got.String(), want)
	}
}
