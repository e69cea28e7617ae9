// Command massf runs a parallel packet-level network simulation from a DML
// network file: it maps the network onto engine nodes with a chosen
// load-balance approach, drives the paper's background and foreground
// workloads, and reports the evaluation metrics (simulation time, achieved
// MLL, load imbalance, parallel efficiency). A profile-based approach
// (PROF, PROF2, HPROF) runs a sequential profiling pass first; to pay for
// it once, capture any run's measured profile with -profile-out and feed
// it back via -profile:
//
//	massf -net net.dml -approach RANDOM -engines 1 -profile-out prof.txt
//	massf -net net.dml -approach HPROF -engines 90 -profile prof.txt
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"massf/internal/des"
	"massf/internal/experiments"
	"massf/internal/faults"
	"massf/internal/flight"
	"massf/internal/memstat"
	"massf/internal/netmon"
	"massf/internal/profile"
	"massf/internal/runspec"
	"massf/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, func() int64 { return time.Now().UnixNano() }); err != nil {
		fmt.Fprintln(os.Stderr, "massf:", err)
		os.Exit(1)
	}
}

// run is the whole command with its effects injected: flags parsed from
// args, the report written to out, and the clock behind `-seed 0` supplied
// by nowNano — so a test can pin the derived seed and assert that a rerun
// with the *printed* seed reproduces the report byte for byte.
//
// The command owns flags, files and printing; the simulation itself is the
// shared launch path (internal/experiments), the same steps massfd walks a
// submitted spec through.
func run(args []string, out io.Writer, nowNano func() int64) error {
	fs := flag.NewFlagSet("massf", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		netPath   = fs.String("net", "", "input DML network (required)")
		name      = fs.String("approach", "HPROF", "mapping approach")
		engines   = fs.Int("engines", 16, "simulation engine node count")
		horizon   = fs.Float64("seconds", 8, "simulated seconds")
		app       = fs.String("app", "scalapack", "foreground application: scalapack, gridnpb, none")
		clients   = fs.Int("clients", 0, "background HTTP clients (default: 80% of free hosts)")
		servers   = fs.Int("servers", 0, "background HTTP servers (default: the rest)")
		profPath  = fs.String("profile", "", "traffic profile input (default for profile-based approaches: run a sequential profiling pass first)")
		profOut   = fs.String("profile-out", "", "write the measured profile here")
		faultPath = fs.String("faults", "", "JSON fault script: scripted link/router churn with live reconvergence")
		traceOut  = fs.String("trace", "", "write the run's flight recording here as Chrome trace JSON (load in ui.perfetto.dev)")
		straggler = fs.Int("stragglers", 0, "print the top-K straggler report after the run (0 = off)")
		netStats  = fs.Bool("netstats", false, "attach the network observability plane and print busiest links, drop split and FCT percentiles")
		netSample = fs.Int("netsample", 0, "sample every k-th injected packet for path tracing (0 = off; implies -netstats)")
		pathTrace = fs.String("pathtrace", "", "write sampled packet paths as Chrome trace lanes next to the engine tracks (implies -netsample 16 if unset)")
		jsonOut   = fs.Bool("json", false, "emit the full result as JSON instead of the text report")
		fidelity  = fs.String("fidelity", "packet", "flow fidelity: packet (all traffic packet-level) or hybrid (background HTTP on the analytic fluid plane, foreground packet-level)")
		fluidQtm  = fs.Float64("fluid-quantum-us", 0, "hybrid: batch fluid rate recomputation onto this grid in µs (0 = exact; the scale knob for very large client counts)")
		seed      = fs.Int64("seed", 0, "simulation seed (0 = derive from the clock)")
		realTime  = fs.Float64("realtime", 0, "real-time pacing factor (0 = as fast as possible, 8 = paper's slowdown)")
		eventCost = fs.Float64("event-cost-us", 15, "modeled per-event cost in µs")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run here (go tool pprof)")
		memProf   = fs.String("memprofile", "", "write a heap profile at exit here (go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *netPath == "" {
		return fmt.Errorf("-net is required")
	}
	if *straggler < 0 {
		return fmt.Errorf("-stragglers must be ≥ 0 (0 = off), got %d", *straggler)
	}
	// Host-level profiling of the simulator itself (hot-path regressions),
	// as opposed to -profile-out, which captures the *simulated* network's
	// traffic profile for the partitioner.
	if *cpuProf != "" {
		pf, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			mf, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "massf:", err)
				return
			}
			defer mf.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintln(os.Stderr, "massf:", err)
			}
		}()
	}
	if *seed == 0 {
		*seed = nowNano()
	}
	if *pathTrace != "" && *netSample == 0 {
		*netSample = 16
	}

	sc := experiments.Scenario{
		Approach: *name, App: *app, Clients: *clients, Servers: *servers,
		RunSpec: runspec.RunSpec{
			Engines: *engines, Seconds: *horizon, Seed: *seed,
			RealTimeFactor: *realTime, EventCostUS: *eventCost,
			NetMon: *netStats, NetSample: *netSample,
			FlowFidelity: strings.ToLower(*fidelity), FluidQuantumUS: *fluidQtm,
		},
	}
	setupStart := time.Now()
	dml, err := os.ReadFile(*netPath)
	if err != nil {
		return err
	}
	sc.DML = string(dml)
	if *profPath != "" {
		text, err := os.ReadFile(*profPath)
		if err != nil {
			return err
		}
		sc.Profile = string(text)
	}
	if *faultPath != "" {
		ff, err := os.Open(*faultPath)
		if err != nil {
			return err
		}
		sc.Faults, err = faults.Load(ff)
		ff.Close()
		if err != nil {
			return err
		}
	}
	// The flight recorder costs one ring append per barrier window, so it
	// is only armed when a trace or straggler report was asked for. The
	// path-trace lanes align to the engine tracks, so -pathtrace arms it
	// too.
	if *traceOut != "" || *straggler > 0 || *pathTrace != "" {
		sc.Telemetry = telemetry.New(*engines, 4096)
	}
	sc.Normalize()
	if err := sc.Validate(); err != nil {
		return err
	}

	ctx := context.Background()
	net, multi, err := sc.Network()
	if err != nil {
		return err
	}
	st, err := sc.Build(net, multi, experiments.Exec{})
	if err != nil {
		return err
	}
	// Like massfd's setup_ms, the setup time leaves the profiling pass out:
	// it is a full simulation, not construction.
	setup := time.Since(setupStart)
	prof, err := sc.TrafficProfile(ctx, st)
	if err != nil {
		return err
	}
	var pass *profile.Profile
	if sc.Profile == "" {
		pass = prof
	}
	mapStart := time.Now()
	mapping, err := sc.Map(st, prof)
	if err != nil {
		return err
	}
	sim, err := sc.Prepare(st, mapping, nil, experiments.Exec{})
	if err != nil {
		return err
	}
	setupSec := (setup + time.Since(mapStart)).Seconds()
	res := sim.Run(ctx)
	mem := memstat.ReadStable()
	mon := sim.NetMon()
	tel := sc.Telemetry
	a := mapping.Approach
	if *jsonOut {
		doc := map[string]any{
			"approach":   a.String(),
			"engines":    *engines,
			"fidelity":   sc.FlowFidelity,
			"seed":       *seed,
			"mll_ns":     int64(mapping.MLL),
			"horizon_ns": int64(sc.Horizon()),
			"setup_sec":  setupSec,
			"mem":        mem,
			"report":     res.Report,
			"partition":  mapping.Part,
			"http": map[string]uint64{
				"requests": res.HTTP.TotalRequests(), "responses": res.HTTP.TotalResponses(),
			},
		}
		if pass != nil {
			doc["profiling_pass_events"] = pass.TotalEvents()
		}
		// Stats.Err is an interface; surface it as a string and clear it so
		// the embedded Result marshals cleanly.
		if res.Result.Err != nil {
			doc["error"] = res.Result.Err.Error()
			res.Result.Err = nil
		}
		doc["result"] = &res.Result
		if len(res.Apps) > 0 {
			apps := make([]map[string]any, len(res.Apps))
			for i, ws := range res.Apps {
				apps[i] = map[string]any{"rounds": ws.Rounds, "first_finish_ns": int64(ws.FirstFinish)}
			}
			doc["apps"] = apps
		}
		if res.Faults != nil {
			doc["faults"] = res.Faults
		}
		if mon != nil {
			doc["netmon"] = map[string]any{
				"summary": mon.Summary(),
				"links":   mon.LinkReport(32, false),
				"flows":   mon.FlowReport(false),
			}
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	} else {
		printTextReport(out, &sc, setupSec, mem, pass, res, mon)
	}

	if *profOut != "" {
		of, err := os.Create(*profOut)
		if err != nil {
			return err
		}
		if err := res.Captured.Write(of); err != nil {
			of.Close()
			return err
		}
		if err := of.Close(); err != nil {
			return err
		}
	}

	meta := map[string]string{"approach": a.String(), "engines": fmt.Sprint(*engines), "net": *netPath}
	// One shared build serves every engine in-process: broadcast the setup
	// span to all tracks so a trace shows what a distributed worker's
	// rebuild would cost.
	setupSpans := make([]int64, *engines)
	for i := range setupSpans {
		setupSpans[i] = int64(setupSec * 1e9)
	}
	if *traceOut != "" {
		events := telemetry.BuildTraceEvents(tel.Windows.Snapshot(), setupSpans)
		if err := writeTrace(*traceOut, events, meta); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace                %s (%d windows recorded)\n", *traceOut, res.Result.Windows)
	}
	if *pathTrace != "" {
		recs := tel.Windows.Snapshot()
		spans := mon.Spans()
		events := append(telemetry.BuildTraceEvents(recs, setupSpans),
			netmon.PathTraceEvents(spans, telemetry.NewTimeline(recs, setupSpans))...)
		meta["sample_every"] = fmt.Sprint(*netSample)
		if err := writeTrace(*pathTrace, events, meta); err != nil {
			return err
		}
		fmt.Fprintf(out, "pathtrace            %s (%d sampled paths, %d hop spans)\n",
			*pathTrace, len(mon.Paths()), len(spans))
	}
	if *straggler > 0 {
		rep := flight.Analyze(tel.Windows.Snapshot(), *straggler)
		rep.AttributeRouters(mapping.Part, res.Result.NodeEvents, 5)
		fmt.Fprintln(out)
		if err := rep.WriteText(out); err != nil {
			return err
		}
	}
	return nil
}

// writeTrace writes Chrome trace events to a new file at path.
func writeTrace(path string, events []telemetry.TraceEvent, meta map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = telemetry.WriteChromeTraceEvents(f, events, meta)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printTextReport writes the human-readable run report: the headline
// metrics, per-app workflow progress, the fault timeline when a fault
// script ran, and the network observability digest when the plane was
// attached.
func printTextReport(out io.Writer, sc *experiments.Scenario, setupSec float64, mem memstat.Sample,
	pass *profile.Profile, run *experiments.RunOutcome, mon *netmon.Mon) {
	res, rep := &run.Result, run.Report
	fmt.Fprintf(out, "approach             %v\n", run.Mapping.Approach)
	fmt.Fprintf(out, "engines              %d\n", sc.Engines)
	fmt.Fprintf(out, "seed                 %d\n", sc.Seed)
	if pass != nil {
		fmt.Fprintf(out, "profiling pass       %d events\n", pass.TotalEvents())
	}
	fmt.Fprintf(out, "achieved MLL         %v\n", run.Mapping.MLL)
	fmt.Fprintf(out, "simulated horizon    %v\n", sc.Horizon())
	fmt.Fprintf(out, "setup time           %.3f s\n", setupSec)
	fmt.Fprintf(out, "memory               %.1f MiB heap in use, %.1f MiB peak RSS\n",
		float64(mem.HeapInuse)/(1<<20), float64(mem.PeakRSS)/(1<<20))
	fmt.Fprintf(out, "events               %d (%d remote)\n", res.TotalEvents, res.RemoteEvents)
	fmt.Fprintf(out, "barrier windows      %d\n", res.Windows)
	fmt.Fprintf(out, "modeled sim time     %.3f s\n", rep.SimTimeSec)
	fmt.Fprintf(out, "wall time            %.3f s\n", rep.WallSec)
	fmt.Fprintf(out, "load imbalance       %.3f\n", rep.Imbalance)
	fmt.Fprintf(out, "parallel efficiency  %.3f\n", rep.Efficiency)
	fmt.Fprintf(out, "flows                %d started, %d completed, %d pkts dropped\n",
		res.FlowsStarted, res.FlowsCompleted, res.Dropped)
	if res.FluidDone != nil {
		fmt.Fprintf(out, "fluid                %d flows started, %d completed, %.1f Mbit delivered\n",
			res.FluidStarted, res.FluidCompleted, float64(res.FluidDeliveredBits)/1e6)
	}
	fmt.Fprintf(out, "http                 %d requests, %d responses\n",
		run.HTTP.TotalRequests(), run.HTTP.TotalResponses())
	for i, ws := range run.Apps {
		fmt.Fprintf(out, "app[%d]               %d rounds, first finish %v\n", i, ws.Rounds, ws.FirstFinish)
	}
	if run.Faults != nil {
		fmt.Fprintf(out, "faults               %d events, %d pkts lost during reconvergence\n",
			len(run.Faults), run.Net.FaultDrops)
		for i, ev := range run.Faults {
			target := fmt.Sprintf("link %d", ev.Link)
			if ev.Kind == faults.NodeDown || ev.Kind == faults.NodeUp {
				target = fmt.Sprintf("node %d", ev.Node)
			}
			if ev.NoOp {
				fmt.Fprintf(out, "fault[%d]             %s %s at %v: no-op\n", i, ev.Kind, target, ev.At)
				continue
			}
			fmt.Fprintf(out, "fault[%d]             %s %s at %v: %d bgp msgs, %d routes changed, routes live at %v, %d pkts lost\n",
				i, ev.Kind, target, ev.At, ev.UpdateMsgs, ev.RoutesChanged, ev.RoutesAt, ev.Drops)
		}
	}
	if mon != nil {
		sum := mon.Summary()
		fmt.Fprintf(out, "net drops            %d tail, %d no-route, %d ttl, %d fault\n",
			sum.DropsTail, sum.DropsNoRoute, sum.DropsTTL, sum.DropsFault)
		fmt.Fprintf(out, "net flows            %d recorded, %d completed\n",
			sum.FlowsRecorded, sum.FlowsCompleted)
		if sum.FlowsCompleted > 0 {
			fmt.Fprintf(out, "net FCT              p50 %v, p90 %v, p99 %v\n",
				des.Time(sum.FCTP50NS), des.Time(sum.FCTP90NS), des.Time(sum.FCTP99NS))
		}
		lr := mon.LinkReport(5, false)
		for i, d := range lr.Links {
			fmt.Fprintf(out, "net link[%d]          link %d dir %d: %d bits, mean util %.3f, peak %.3f, max queue %v\n",
				i, d.Link, d.Dir, d.Bits, d.MeanUtil, d.PeakUtil, des.Time(d.QueueMaxNS))
		}
		if mon.Sampling() {
			fmt.Fprintf(out, "net paths            %d sampled (every %d pkts), %d hop spans\n",
				len(mon.Paths()), mon.SampleEvery(), sum.Spans)
		}
	}
}
