package simcheck

import (
	"fmt"
	"io"
	"reflect"

	"massf/internal/core"
	"massf/internal/experiments"
	"massf/internal/pdes"
	"massf/internal/profile"
	"massf/internal/telemetry"
)

// Plan is one scenario prepared once for every conformance leg: the built
// Setup, the sequential N=1 reference with the profile measured from it,
// and per engine count the mapping and the in-process run. It holds the
// single copy of each step — build, reference, map, instrumented k-run —
// and a dimension is a method adding only the runs that are its own (Check,
// Distributed, Neutrality, Fluid, Trace). Every run takes the launch path's
// steps (internal/experiments: Network → Build → Map → Prepare → Run), so
// what the oracle proves equivalent is what massf and massfd execute. Legs
// taken from one Plan share the reference by pointer and execute each
// (scenario, k) in-process run at most once. A Plan is not safe for
// concurrent use.
type Plan struct {
	Scenario Scenario
	Ref      *Observation // sequential N=1 reference

	st   *experiments.Setup
	prof *profile.Profile // measured by the reference run; nil unless the approach maps from one
	ks   map[int]*kPlan
}

// kPlan is a Plan's memo for one engine count.
type kPlan struct {
	m     *core.Mapping
	run   *KRun // in-process run of the plan's scenario; nil until a leg asks
	armed bool  // run had the invariant hooks attached
}

// NewPlan builds the scenario and runs its sequential reference. A scenario
// with a fault script must see one loss counter per compiled fault event in
// the reference: fewer means the run had no fault plane, and every churn
// comparison after it would compare nothing.
func NewPlan(sc Scenario) (*Plan, error) {
	st, err := sc.setup()
	if err != nil {
		return nil, err
	}
	p := &Plan{Scenario: sc, st: st, ks: map[int]*kPlan{}}
	g, err := p.mapped(1)
	if err != nil {
		return nil, err
	}
	ref, out, err := runOnce(st, sc, g.m, 1, experiments.Exec{}, nil)
	if err != nil {
		return nil, fmt.Errorf("simcheck: reference run: %w", err)
	}
	if f := sc.effectiveFaults(st.Net); f != nil && len(ref.FaultDrops) != len(f.Expand()) {
		return nil, fmt.Errorf("simcheck: reference run reports %d fault counters for %d scripted fault events: no fault plane attached",
			len(ref.FaultDrops), len(f.Expand()))
	}
	p.Ref = ref
	if sc.Approach.ProfileBased() {
		p.prof = out.Captured
	}
	return p, nil
}

// of returns the plan of sc: p itself when sc is p's scenario, else a new
// one. Legs that compare against a variant of the scenario (uninstrumented,
// pure-packet) resolve it here; usually p is that variant and nothing reruns.
func (p *Plan) of(sc Scenario) (*Plan, error) {
	if reflect.DeepEqual(sc, p.Scenario) {
		return p, nil
	}
	return NewPlan(sc)
}

// mapped returns the memo for k engines, mapping the network on first use
// through the launch path's Map; HPROF maps from the reference run's
// measured profile — the same feedback loop the real experiments use.
func (p *Plan) mapped(k int) (*kPlan, error) {
	if g := p.ks[k]; g != nil {
		return g, nil
	}
	es := p.Scenario.launch(k)
	m, err := es.Map(p.st, p.prof)
	if err != nil {
		return nil, fmt.Errorf("simcheck: map k=%d: %w", k, err)
	}
	g := &kPlan{m: m}
	p.ks[k] = g
	return g, nil
}

// runK executes sc — the plan's scenario, or a variant sharing its Setup —
// in process on k engines under the plan's mapping and diffs it against the
// reference. This is the one place a k-run is instrumented: armed attaches
// the pdes runtime invariant hooks, a non-nil tel the flight recorder.
func (p *Plan) runK(sc Scenario, k int, armed bool, tel *telemetry.SimTelemetry) (*KRun, error) {
	g, err := p.mapped(k)
	if err != nil {
		return nil, err
	}
	var x experiments.Exec
	if armed {
		x.Invariants = &pdes.Invariants{}
	}
	obs, out, err := runOnce(p.st, sc, g.m, k, x, tel)
	if err != nil {
		return nil, fmt.Errorf("simcheck: parallel run k=%d: %w", k, err)
	}
	kr := &KRun{
		K: k, Window: g.m.Window(), Windows: out.Result.Windows, MLL: g.m.MLL,
		Obs: obs, Divergences: Diff(p.Ref, obs),
	}
	if armed {
		kr.Violations = x.Invariants.Violations()
	}
	return kr, nil
}

// inProc returns the in-process run of the plan's scenario on k engines,
// executing it on first use. A run some leg made without the invariant
// hooks is repeated when a later leg wants them armed.
func (p *Plan) inProc(k int, armed bool) (*KRun, error) {
	if g := p.ks[k]; g != nil && g.run != nil && (g.armed || !armed) {
		return g.run, nil
	}
	kr, err := p.runK(p.Scenario, k, armed, nil)
	if err != nil {
		return nil, err
	}
	g := p.ks[k]
	g.run, g.armed = kr, armed
	return kr, nil
}

// Check runs and diffs every configured parallel engine count against the
// reference, invariant hooks armed.
func (p *Plan) Check() (*Report, error) {
	rep := &Report{Scenario: p.Scenario, Ref: p.Ref}
	for _, k := range p.Scenario.Ks {
		kr, err := p.inProc(k, true)
		if err != nil {
			return nil, err
		}
		rep.Runs = append(rep.Runs, *kr)
	}
	return rep, nil
}

// Check is NewPlan followed by Plan.Check: build the scenario, run the
// sequential reference, then run and diff every engine count in Ks.
func Check(sc Scenario) (*Report, error) {
	p, err := NewPlan(sc)
	if err != nil {
		return nil, err
	}
	return p.Check()
}

// Trace re-executes the plan's k-engine run with the flight recorder
// attached and writes a Chrome trace-event file of every barrier window —
// the artifact to open next to a divergence report: the window whose
// [start_ns, end_ns) holds KRun.DivergedAt locates the exchange that went
// wrong.
func (p *Plan) Trace(k int, w io.Writer) error {
	tel := telemetry.New(k, 1<<16)
	kr, err := p.runK(p.Scenario, k, true, tel)
	if err != nil {
		return err
	}
	return telemetry.WriteChromeTraceEvents(w, telemetry.BuildTraceEvents(tel.Windows.Snapshot(), nil), map[string]string{
		"tool":     "simcheck",
		"scenario": p.Scenario.String(),
		"k":        fmt.Sprint(k),
		"window":   kr.Window.String(),
	})
}
