package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/pdes"
	"massf/internal/simcheck"
)

// TestSweepGolden pins every line a passing sweep prints with all four
// dimensions requested at once — churn, distributed, observer neutrality,
// hybrid fidelity — against the output captured before the
// legs were folded into one plan per scenario. The indented per-worker
// "owned nodes, build …ms" lines are dropped from both sides: worker join
// order and build times vary run to run.
func TestSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full four-dimension sweep skipped in -short")
	}
	var buf bytes.Buffer
	ok, err := run(strings.Fields("-scenarios 3 -churn -dist 2 -dist-k 4 -netmon 4 -fluid -v"), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("sweep failed:\n%s", buf.String())
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if !strings.Contains(line, " owned nodes, build ") {
			got.WriteString(line)
		}
	}
	want, err := os.ReadFile("testdata/sweep.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("sweep output changed\n--- got\n%s--- want\n%s", got.String(), want)
	}
}

// TestReportFailureBlock pins the FAIL block for a scenario whose k=4 run
// diverged: the passing k=2 run is skipped, the violation and the first
// eight divergences print with a line for the rest, and the earliest
// time-attributable divergence is named by its simulated time.
// firstFailingK picks the run a -trace of the failure re-executes.
func TestReportFailureBlock(t *testing.T) {
	divs := []simcheck.Divergence{{Field: "TotalEvents", Index: -1, Seq: "100", Par: "101"}}
	for i := 0; i < 8; i++ {
		divs = append(divs, simcheck.Divergence{Field: "NodeEvents", Index: i, Seq: "5", Par: "6"})
	}
	divs = append(divs, simcheck.Divergence{Field: "TCPDone", Index: 3,
		Seq: "20.000ms", Par: "26.000ms", At: 20*des.Millisecond + 250*des.Microsecond})
	rep := &simcheck.Report{
		Scenario: simcheck.Scenario{Seed: 3, Routers: 20, Hosts: 8, TCPFlows: 2,
			Horizon: des.Second, Approach: core.TOP2, Ks: []int{2, 4}},
		Runs: []simcheck.KRun{
			{K: 2, Window: des.Millisecond, Windows: 900, MLL: des.Millisecond},
			{K: 4, Window: 500 * des.Microsecond, Windows: 1800, MLL: 600 * des.Microsecond,
				Violations: []pdes.Violation{{Kind: pdes.ViolationLookahead, Engine: 1, Src: 0,
					Seq: 7, At: 1200 * des.Microsecond, WindowEnd: 1500 * des.Microsecond}},
				Divergences: divs},
		},
	}
	var buf bytes.Buffer
	reportFailure(&buf, rep)
	want := `FAIL seed=3 flat(r=20,h=8) TOP2 tcp=2 udp=0 http=0 horizon=1.000s ks=[2 4]
  k=4 window=500.000µs (1800 windows executed, MLL 600.000µs):
    violation: pdes: lookahead violation: engine 1 in the window ending 1.500ms: event (at=1.200ms, src=0, seq=7)
    divergence: TotalEvents: seq=100 par=101
    divergence: NodeEvents[0]: seq=5 par=6
    divergence: NodeEvents[1]: seq=5 par=6
    divergence: NodeEvents[2]: seq=5 par=6
    divergence: NodeEvents[3]: seq=5 par=6
    divergence: NodeEvents[4]: seq=5 par=6
    divergence: NodeEvents[5]: seq=5 par=6
    divergence: NodeEvents[6]: seq=5 par=6
    ... and 2 more divergences
    earliest divergence at 20.250ms
`
	if got := buf.String(); got != want {
		t.Errorf("FAIL block changed\n--- got\n%s--- want\n%s", got, want)
	}
	if k := firstFailingK(rep); k != 4 {
		t.Errorf("firstFailingK = %d, want the diverged k=4", k)
	}
	rep.Runs[1].Violations, rep.Runs[1].Divergences = nil, nil
	if k := firstFailingK(rep); k != 2 {
		t.Errorf("firstFailingK of a passing report = %d, want the first run's k=2", k)
	}
}
