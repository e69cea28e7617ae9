// Command simcheck runs the sequential-vs-parallel conformance oracle:
// seeded random scenarios executed on one engine and on k engines, with
// the full per-flow/per-router statistics diffed byte for byte and the
// pdes runtime invariant hooks armed. A failing seed is shrunk to a
// locally minimal reproducer, and the failing run's flight-recorder trace
// can be dumped as a Chrome trace-event file.
//
// Each scenario is prepared once as a simcheck.Plan — built, run
// sequentially, profiled, mapped per k — and every further dimension a
// flag asks for (-dist, -netmon, -fluid) is a leg run off that plan
// through one table, sharing its reference and its in-process runs.
//
// Usage:
//
//	simcheck -scenarios 100                 # sweep seeds 1..100
//	simcheck -repro 42 -v                   # re-check one seed verbosely
//	simcheck -repro 42 -trace div.json      # dump the failing run's trace
//	simcheck -scenario-json '{"Seed":42,...}'  # re-check a shrunk reproducer
//	simcheck -scenarios 25 -churn -dist 2 -dist-k 4  # churn sweep + distributed leg
//	simcheck -scenarios 25 -netmon 4        # + observer-neutrality dimension (stride 4)
//	simcheck -scenarios 25 -fluid           # + hybrid flow/packet fidelity dimension
//	simcheck -scenarios 25 -fluid -churn    # hybrid × faults determinism sweep
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"

	"massf/internal/dist"
	"massf/internal/simcheck"
)

func main() {
	ok, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simcheck:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (bool, error) {
	fs := flag.NewFlagSet("simcheck", flag.ContinueOnError)
	fs.SetOutput(out)
	scenarios := fs.Int("scenarios", 25, "number of seeded scenarios to sweep (seeds seed..seed+n-1)")
	seed := fs.Int64("seed", 1, "base seed for the sweep")
	ks := fs.String("ks", "2,4,8", "comma-separated parallel engine counts to compare against N=1")
	repro := fs.Int64("repro", 0, "check a single seed instead of sweeping")
	scJSON := fs.String("scenario-json", "", "check an explicit scenario (JSON, as printed by the shrinker)")
	shrink := fs.Bool("shrink", true, "shrink a failing seed to a minimal reproducer")
	shrinkBudget := fs.Int("shrink-budget", 40, "max oracle re-runs the shrinker may spend")
	trace := fs.String("trace", "", "on failure, write a Chrome trace of the first failing run to this file")
	churn := fs.Bool("churn", false, "inject seeded link/router fault churn into every swept scenario (the fault-plane conformance dimension)")
	netmonSample := fs.Int("netmon", 0, "also run each passing scenario with the netmon observability plane attached at this sampling stride and prove observer neutrality (largest k in -ks)")
	fluidDim := fs.Bool("fluid", false, "also run each passing scenario at hybrid flow/packet fidelity: scripted bulk TCP moves to the analytic fluid plane, the hybrid run must be byte-identical across every k in -ks and (churn-free scenarios) within the error budget of the pure-packet run")
	fluidMin := fs.Int64("fluid-min-bytes", simcheck.DefaultFluidMinBytes, "with -fluid: fluidization threshold — scripted TCP transfers at least this large go fluid")
	fluidQuantum := fs.Int64("fluid-quantum-ns", 0, "with -fluid: batch fluid rate recomputation onto this grid (0 = exact)")
	distWorkers := fs.Int("dist", 0, "also run each scenario across this many loopback TCP workers (largest k in -ks) and diff the merged observables")
	distK := fs.Int("dist-k", 0, "with -dist: pin the distributed engine count (default: largest k in -ks)")
	distListen := fs.String("dist-listen", "", "with -dist: listen on this address and wait for external workers (massfd -worker -join <addr>) instead of spawning in-process worker loops")
	scacheDir := fs.String("scache", "", "with -dist: scenario artifact cache directory the workers read topologies through (default: a fresh temp dir per process)")
	verbose := fs.Bool("v", false, "print every scenario, not just failures")
	if err := fs.Parse(args); err != nil {
		return false, err
	}

	kList, err := parseKs(*ks)
	if err != nil {
		return false, err
	}
	cacheDir := *scacheDir
	if *distWorkers > 0 && cacheDir == "" {
		dir, err := os.MkdirTemp("", "massf-scache-*")
		if err != nil {
			return false, err
		}
		defer os.RemoveAll(dir)
		cacheDir = dir
	}

	var list []simcheck.Scenario
	if *scJSON != "" {
		var sc simcheck.Scenario
		if err := json.Unmarshal([]byte(*scJSON), &sc); err != nil {
			return false, fmt.Errorf("parsing -scenario-json: %w", err)
		}
		list = []simcheck.Scenario{sc}
	} else {
		first, n := *seed, *scenarios
		if *repro != 0 {
			first, n = *repro, 1
		}
		for i := 0; i < n; i++ {
			sc := simcheck.NewScenario(first + int64(i))
			sc.Ks = kList
			if *churn {
				sc = simcheck.Churn(sc)
			}
			list = append(list, sc)
		}
	}

	var legs []leg
	if *distWorkers > 0 {
		legs = append(legs, leg{"distributed", func(p *simcheck.Plan) (verdict, error) {
			return distLeg(out, p, *distWorkers, *distK, *distListen, cacheDir)
		}, printDistributed})
	}
	if *netmonSample > 0 {
		legs = append(legs, leg{"neutrality", func(p *simcheck.Plan) (verdict, error) {
			return p.Neutrality(slices.Max(kList), *netmonSample)
		}, printNeutrality})
	}
	if *fluidDim {
		legs = append(legs, leg{"fluid", func(p *simcheck.Plan) (verdict, error) {
			return p.Fluid(*fluidMin, *fluidQuantum, simcheck.DefaultFluidBudget())
		}, printFluid})
	}

	pass := 0
	for _, sc := range list {
		plan, err := simcheck.NewPlan(sc)
		if err != nil {
			return false, fmt.Errorf("seed %d: %w", sc.Seed, err)
		}
		rep, err := plan.Check()
		if err != nil {
			return false, fmt.Errorf("seed %d: %w", sc.Seed, err)
		}
		ok := !rep.Failed()
		if !ok {
			reportFailure(out, rep)
			if *shrink {
				min := simcheck.Shrink(sc, func(c simcheck.Scenario) bool {
					r, err := simcheck.Check(c)
					return err == nil && r.Failed()
				}, *shrinkBudget)
				// Freeze seeded churn into its explicit fault timeline so the
				// reproducer JSON survives generator changes.
				if mat, err := min.Materialized(); err == nil {
					min = mat
				}
				b, _ := json.Marshal(min)
				fmt.Fprintf(out, "shrunk reproducer: %s\n", min)
				fmt.Fprintf(out, "re-check with: simcheck -scenario-json '%s'\n", b)
			}
			if *trace != "" {
				k := firstFailingK(rep)
				f, err := os.Create(*trace)
				if err != nil {
					return false, err
				}
				terr := plan.Trace(k, f)
				cerr := f.Close()
				if terr != nil {
					return false, fmt.Errorf("writing trace: %w", terr)
				}
				if cerr != nil {
					return false, cerr
				}
				fmt.Fprintf(out, "flight-recorder trace of k=%d run written to %s\n", k, *trace)
			}
		}
		for i := 0; ok && i < len(legs); i++ {
			v, err := legs[i].run(plan)
			if err != nil {
				return false, fmt.Errorf("seed %d %s: %w", sc.Seed, legs[i].name, err)
			}
			if v == nil {
				continue
			}
			ok = !v.Failed()
			if !ok || *verbose {
				legs[i].print(out, v)
			}
		}
		if !ok {
			fmt.Fprintf(out, "%d/%d scenarios passed before first failure\n", pass, len(list))
			return false, nil
		}
		pass++
		if *verbose {
			fmt.Fprintf(out, "ok   %s (events=%d)\n", sc, rep.Ref.TotalEvents)
		}
	}
	fmt.Fprintf(out, "simcheck: %d/%d scenarios passed\n", pass, len(list))
	return true, nil
}

// verdict is what every leg's report answers.
type verdict interface{ Failed() bool }

// leg is one conformance dimension beyond N=1 vs k, run off a scenario's
// plan once that check has passed: its name labels a run error, run returns
// the leg's report (with no error, nil when the leg does not apply to the
// scenario), print writes the report's ok lines or its FAIL block.
type leg struct {
	name  string
	run   func(*simcheck.Plan) (verdict, error)
	print func(io.Writer, verdict)
}

// distLeg runs the plan's distributed leg with one engine count (pinned by
// -dist-k, else the largest in Ks) split across `workers` TCP workers,
// reading topologies through the artifact cache in cacheDir. With
// listen == "" the workers are in-process loopback loops; otherwise the
// oracle listens there and waits for external worker processes
// (massfd -worker) to join.
func distLeg(out io.Writer, p *simcheck.Plan, workers, pinnedK int, listen, cacheDir string) (verdict, error) {
	k := pinnedK
	if k == 0 && len(p.Scenario.Ks) > 0 {
		k = slices.Max(p.Scenario.Ks)
	}
	if k < workers {
		return nil, nil // no engine count can host that many workers
	}
	var ln net.Listener
	if listen != "" {
		var err error
		if ln, err = net.Listen("tcp", listen); err != nil {
			return nil, err
		}
		defer ln.Close()
		fmt.Fprintf(out, "waiting for %d workers on %s (massfd -worker -join %s)\n",
			workers, ln.Addr(), ln.Addr())
	}
	return p.Distributed(ln, k, workers, cacheDir, dist.Options{})
}

// printDistributed reports the distributed leg: the merged worker
// observables against the sequential reference, and what each worker
// built.
func printDistributed(out io.Writer, v verdict) {
	rep := v.(*simcheck.DistReport)
	if !rep.Failed() {
		fmt.Fprintf(out, "ok   %s distributed k=%d workers=%d (%d windows)\n",
			rep.Scenario, rep.K, rep.Workers, rep.Windows)
		for _, wm := range rep.WorkerMem {
			fmt.Fprintf(out, "       %s: %d owned nodes, build %.1fms, route tables %dB\n",
				wm.Name, wm.SliceNodes, float64(wm.BuildNS)/1e6, wm.RouteBytes)
		}
		return
	}
	fmt.Fprintf(out, "FAIL %s distributed k=%d workers=%d window=%v (%d windows)\n",
		rep.Scenario, rep.K, rep.Workers, rep.Window, rep.Windows)
	for _, d := range rep.DivsInProc {
		fmt.Fprintf(out, "  in-process divergence: %v\n", d)
	}
	for _, d := range rep.DivsDist {
		fmt.Fprintf(out, "  distributed divergence: %v\n", d)
	}
}

// printFluid reports the hybrid flow/packet fidelity leg: the hybrid run
// byte-identical across every engine count in Ks, and — on churn-free
// scenarios — per-flow goodput, FCT percentiles, and per-link carried
// volume within the error budget of the pure-packet run of the same seed.
func printFluid(out io.Writer, v verdict) {
	rep := v.(*simcheck.FluidReport)
	if !rep.Failed() {
		switch {
		case rep.FluidFlows == 0:
			fmt.Fprintf(out, "ok   %s fluid: no transfer over threshold\n", rep.Scenario)
		case rep.Metrics == nil:
			fmt.Fprintf(out, "ok   %s fluid flows=%d completed=%d (churn: determinism only)\n",
				rep.Scenario, rep.FluidFlows, rep.HybridRef.FluidCompleted)
		default:
			fmt.Fprintf(out, "ok   %s fluid flows=%d completed=%d\n",
				rep.Scenario, rep.FluidFlows, rep.HybridRef.FluidCompleted)
			for _, m := range rep.Metrics {
				fmt.Fprintf(out, "       %v\n", m)
			}
		}
		return
	}
	fmt.Fprintf(out, "FAIL %s fluid flows=%d\n", rep.Scenario, rep.FluidFlows)
	for i := range rep.Runs {
		kr := &rep.Runs[i]
		for _, v := range kr.Violations {
			fmt.Fprintf(out, "  k=%d violation: %v\n", kr.K, v)
		}
		const maxShown = 8
		for j, d := range kr.Divergences {
			if j == maxShown {
				fmt.Fprintf(out, "  k=%d ... and %d more divergences\n", kr.K, len(kr.Divergences)-maxShown)
				break
			}
			fmt.Fprintf(out, "  k=%d hybrid divergence: %v\n", kr.K, d)
		}
	}
	for _, m := range rep.Metrics {
		if !m.OK {
			fmt.Fprintf(out, "  over budget: %v\n", m)
		}
	}
}

// printNeutrality reports the observer-neutrality leg: the netmon plane
// attached at the largest engine count changed nothing.
func printNeutrality(out io.Writer, v verdict) {
	rep := v.(*simcheck.NeutralityReport)
	if !rep.Failed() {
		fmt.Fprintf(out, "ok   %s %s\n", rep.Scenario, rep)
		return
	}
	fmt.Fprintf(out, "FAIL %s %s\n", rep.Scenario, rep)
	for _, d := range rep.DivsSeq {
		fmt.Fprintf(out, "  sequential perturbation: %v\n", d)
	}
	for _, d := range rep.DivsPar {
		fmt.Fprintf(out, "  parallel perturbation: %v\n", d)
	}
}

func reportFailure(out io.Writer, rep *simcheck.Report) {
	fmt.Fprintf(out, "FAIL %s\n", rep.Scenario)
	for i := range rep.Runs {
		kr := &rep.Runs[i]
		if !kr.Failed() {
			continue
		}
		fmt.Fprintf(out, "  k=%d window=%v (%d windows executed, MLL %v):\n",
			kr.K, kr.Window, kr.Windows, kr.MLL)
		for _, v := range kr.Violations {
			fmt.Fprintf(out, "    violation: %v\n", v)
		}
		const maxShown = 8
		for i, d := range kr.Divergences {
			if i == maxShown {
				fmt.Fprintf(out, "    ... and %d more divergences\n", len(kr.Divergences)-maxShown)
				break
			}
			fmt.Fprintf(out, "    divergence: %v\n", d)
		}
		if w := kr.DivergentWindow(); w >= 0 {
			fmt.Fprintf(out, "    earliest divergence in barrier window %d of %d\n", w, kr.Windows)
		}
	}
}

func firstFailingK(rep *simcheck.Report) int {
	for i := range rep.Runs {
		if rep.Runs[i].Failed() {
			return rep.Runs[i].K
		}
	}
	return rep.Runs[0].K
}

func parseKs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := strconv.Atoi(part)
		if err != nil || k < 2 {
			return nil, fmt.Errorf("invalid -ks entry %q (want integers ≥ 2)", part)
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-ks is empty")
	}
	return out, nil
}
