// Command experiments regenerates every table and figure of the paper's
// evaluation (Figures 3, 5–13 plus the headline claims) and prints them as
// text tables. By default it runs at the reduced scale (2,000 routers / 20
// AS × 100 routers, 16 engines); -full switches to the paper's 20,000
// routers / 100 AS × 200 routers on 90 engines (slow). Both testbeds are
// launch-path scenarios (experiments.Reduced, experiments.Paper), run the
// way massf runs a spec.
//
// Examples:
//
//	experiments                 # everything, reduced scale
//	experiments -fig 5          # just the synchronization cost curve
//	experiments -fig 10-13      # the multi-AS evaluation
//	experiments -full           # paper scale
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"massf/internal/cluster"
	"massf/internal/experiments"
	"massf/internal/profile"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// selection is what one -fig value prints, and so which testbeds it runs.
type selection struct {
	fig5, fig3, figures, headline bool
	single, multi                 bool
}

var selections = map[string]selection{
	"all":      {fig5: true, fig3: true, figures: true, headline: true, single: true, multi: true},
	"3":        {fig3: true, single: true},
	"5":        {fig5: true},
	"6-9":      {figures: true, headline: true, single: true},
	"10-13":    {figures: true, headline: true, multi: true},
	"headline": {headline: true, single: true, multi: true},
}

// run is the whole command: flags parsed from args, the tables written to
// stdout, usage and progress to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.String("fig", "all", "which figures to run: all, 3, 5, 6-9, 10-13, headline, ablations")
		full    = fs.Bool("full", false, "run at the paper's full scale (20k routers, 90 engines)")
		seconds = fs.Float64("seconds", 0, "override the simulated horizon in seconds (0 keeps the testbed's)")
		engines = fs.Int("engines", 0, "override the engine-node count (0 keeps the testbed's)")
		seed    = fs.Int64("seed", 0, "override the experiment seed (0 keeps the testbed's)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sel, ok := selections[*fig]
	if !ok && *fig != "ablations" {
		fs.Usage()
		return fmt.Errorf("unknown -fig %q", *fig)
	}

	single, multi := experiments.Reduced()
	if *full {
		single, multi = experiments.Paper()
	}
	for _, sc := range []*experiments.Scenario{&single, &multi} {
		if *seconds != 0 {
			sc.Seconds = *seconds
		}
		if *engines != 0 {
			sc.Engines = *engines
		}
		if *seed != 0 {
			sc.Seed = *seed
		}
		sc.Normalize()
		if err := sc.Validate(); err != nil {
			return err
		}
	}

	if *fig == "ablations" {
		return runAblations(stdout, stderr, single)
	}
	if sel.fig5 {
		experiments.Fig5Table(cluster.DefaultTeraGrid()).Fprint(stdout)
		fmt.Fprintln(stdout)
	}
	if sel.single {
		if err := runSuite(stdout, stderr, single, sel); err != nil {
			return err
		}
	}
	if sel.multi {
		if err := runSuite(stdout, stderr, multi, sel); err != nil {
			return err
		}
	}
	return nil
}

// build takes sc through the launch path's network and build steps,
// reporting the time taken to stderr.
func build(stderr io.Writer, sc experiments.Scenario) (*experiments.Setup, error) {
	t0 := time.Now()
	net, multi, err := sc.Network()
	if err != nil {
		return nil, err
	}
	st, err := sc.Build(net, multi, experiments.Exec{})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "built %s testbed in %v (%d nodes, %d links)\n",
		sc.Name, time.Since(t0).Round(time.Millisecond), len(net.Nodes), len(net.Links))
	return st, nil
}

// runSuite evaluates both workloads on sc's testbed and prints sel's
// tables of it.
func runSuite(stdout, stderr io.Writer, sc experiments.Scenario, sel selection) error {
	st, err := build(stderr, sc)
	if err != nil {
		return err
	}
	var evals []*experiments.Eval
	for _, app := range []string{"scalapack", "gridnpb"} {
		t0 := time.Now()
		sc.App = app
		ev, err := experiments.Evaluate(sc, st)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "evaluated %v on %s in %v\n", ev.Workload, sc.Name, time.Since(t0).Round(time.Millisecond))
		evals = append(evals, ev)
	}
	multi := sc.MultiAS != nil
	var tables []*experiments.Table
	if sel.fig3 && !multi {
		tables = append(tables, experiments.Fig3Table(evals[0].Fig3))
	}
	if sel.figures {
		tables = append(tables,
			experiments.SimTimeTable(evals, multi),
			experiments.MLLTable(evals, multi),
			experiments.ImbalanceTable(evals, multi),
			experiments.EfficiencyTable(evals, multi))
	}
	if sel.headline {
		tables = append(tables, experiments.HeadlineTable(evals, multi))
	}
	for _, t := range tables {
		t.Fprint(stdout)
		fmt.Fprintln(stdout)
	}
	return nil
}

// runAblations prints the design-choice ablation tables, mapped on the
// single-AS testbed from its ScaLapack profile.
func runAblations(stdout, stderr io.Writer, sc experiments.Scenario) error {
	st, err := build(stderr, sc)
	if err != nil {
		return err
	}
	prof, err := sc.TrafficProfile(context.Background(), st)
	if err != nil {
		return err
	}
	for _, gen := range []func(experiments.Scenario, *experiments.Setup, *profile.Profile) (*experiments.Table, error){
		experiments.AblationTmllStep,
		experiments.AblationSelectionMetric,
		experiments.AblationEdgeWeights,
	} {
		t, err := gen(sc, st, prof)
		if err != nil {
			return err
		}
		t.Fprint(stdout)
		fmt.Fprintln(stdout)
	}
	experiments.AblationRefinement(20000, 90, 5).Fprint(stdout)
	fmt.Fprintln(stdout)
	return nil
}
