// Command experiments regenerates every table and figure of the paper's
// evaluation (Figures 3, 5–13 plus the headline claims) and prints them as
// text tables. By default it runs at the reduced scale (2,000 routers / 20
// AS × 100 routers, 16 engines); -full switches to the paper's 20,000
// routers / 100 AS × 200 routers on 90 engines (slow).
//
// Examples:
//
//	experiments                 # everything, reduced scale
//	experiments -fig 5          # just the synchronization cost curve
//	experiments -fig 10-13      # the multi-AS evaluation
//	experiments -full           # paper scale
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"massf/internal/des"
	"massf/internal/experiments"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "which figures to run: all, 3, 5, 6-9, 10-13, headline, ablations")
		full    = flag.Bool("full", false, "run at the paper's full scale (20k routers, 90 engines)")
		seconds = flag.Float64("seconds", 0, "override the simulated horizon in seconds")
		engines = flag.Int("engines", 0, "override the engine-node count")
		seed    = flag.Int64("seed", 0, "override the experiment seed")
	)
	flag.Parse()

	sc := experiments.Reduced()
	if *full {
		sc = experiments.Paper()
	}
	if *seconds > 0 {
		sc.Horizon = des.FromFloat(*seconds, des.Second)
	}
	if *engines > 0 {
		sc.Engines = *engines
	}
	if *seed > 0 {
		sc.Seed = *seed
	}

	wantSingle := *fig == "all" || *fig == "3" || *fig == "6-9" || *fig == "headline"
	wantMulti := *fig == "all" || *fig == "10-13" || *fig == "headline"
	wantFig5 := *fig == "all" || *fig == "5"

	if *fig == "ablations" {
		runAblations(sc)
		return
	}

	if wantFig5 {
		experiments.Fig5Table(experiments.DefaultSync()).Fprint(os.Stdout)
		fmt.Println()
	}
	if wantSingle {
		runSuite(sc, false, *fig)
	}
	if wantMulti {
		runSuite(sc, true, *fig)
	}
}

func runSuite(sc experiments.Scale, multi bool, fig string) {
	t0 := time.Now()
	var st *experiments.Setup
	var err error
	if multi {
		st, err = experiments.BuildMultiAS(sc)
	} else {
		st, err = experiments.BuildSingleAS(sc)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "built %s %s testbed in %v (%d nodes, %d links)\n",
		sc.Name, label(multi), time.Since(t0).Round(time.Millisecond), len(st.Net.Nodes), len(st.Net.Links))

	var evals []*experiments.Eval
	for _, w := range []experiments.Workload{experiments.ScaLapack, experiments.GridNPB} {
		t1 := time.Now()
		ev, err := experiments.Evaluate(st, w)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "evaluated %v on %s in %v\n", w, label(multi), time.Since(t1).Round(time.Millisecond))
		evals = append(evals, ev)
	}
	if fig == "all" || fig == "3" {
		if !multi && evals[0].Fig3 != nil {
			experiments.Fig3Table(evals[0].Fig3).Fprint(os.Stdout)
			fmt.Println()
		}
	}
	if fig != "3" {
		experiments.SimTimeTable(evals, multi).Fprint(os.Stdout)
		fmt.Println()
		experiments.MLLTable(evals, multi).Fprint(os.Stdout)
		fmt.Println()
		experiments.ImbalanceTable(evals, multi).Fprint(os.Stdout)
		fmt.Println()
		experiments.EfficiencyTable(evals, multi).Fprint(os.Stdout)
		fmt.Println()
		experiments.HeadlineTable(evals, multi).Fprint(os.Stdout)
		fmt.Println()
	}
}

// runAblations prints the design-choice ablation tables.
func runAblations(sc experiments.Scale) {
	st, err := experiments.BuildSingleAS(sc)
	if err != nil {
		fatal(err)
	}
	if err := st.RunProfiling(experiments.ScaLapack); err != nil {
		fatal(err)
	}
	for _, gen := range []func(*experiments.Setup) (*experiments.Table, error){
		experiments.AblationTmllStep,
		experiments.AblationSelectionMetric,
		experiments.AblationEdgeWeights,
	} {
		t, err := gen(st)
		if err != nil {
			fatal(err)
		}
		t.Fprint(os.Stdout)
		fmt.Println()
	}
	experiments.AblationRefinement(20000, 90, 5).Fprint(os.Stdout)
	fmt.Println()
}

func label(multi bool) string {
	if multi {
		return "multi-AS"
	}
	return "single-AS"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
