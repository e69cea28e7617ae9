// Hybrid-fidelity conformance: the -fluid dimension runs each seeded
// scenario twice — pure packet, and hybrid with bulk scripted TCP moved
// to the analytic fluid plane — and enforces two distinct properties:
//
//  1. Determinism: the hybrid run is byte-identical across engine counts
//     (N=1 ≡ every k), exactly like the pure-packet oracle. The fluid
//     plane is precomputed and replicated, so any divergence is a bug in
//     the hybrid coupling, not an accepted approximation.
//  2. Accuracy: the hybrid run deviates from the pure-packet reference
//     only within an executable error budget on per-flow goodput, FCT
//     percentiles, and per-link carried volume. The fluid model is an
//     approximation BY DESIGN (no slow start beyond the modeled startup
//     delay, no loss, ideal max-min sharing); the budget turns "close
//     enough" into a regression-testable number.
package simcheck

import (
	"fmt"
	"math"
	"sort"
)

// FluidBudget is the executable error budget of the hybrid fidelity
// model: every field is a maximum allowed relative error of the hybrid
// run against the pure-packet reference of the same scenario.
type FluidBudget struct {
	// GoodputMeanRel bounds the mean per-flow relative goodput error of
	// the fluidized transfers.
	GoodputMeanRel float64
	// FCTP50Rel / FCTP90Rel / FCTP99Rel bound the relative error of the
	// fluidized transfers' completion-time percentiles. Flows unfinished
	// at the horizon are censored to it in both runs.
	FCTP50Rel, FCTP90Rel, FCTP99Rel float64
	// LinkUtilRel bounds the traffic-weighted L1 error of per-link
	// carried wire volume: Σ_l |hybrid_l − packet_l| / Σ_l packet_l,
	// where hybrid counts packet AND fluid bits.
	LinkUtilRel float64
}

// DefaultFluidBudget is the budget cmd/simcheck -fluid enforces. The
// values bound what the fluid abstraction gives up relative to full TCP
// dynamics (slow start, loss recovery, ACK self-clocking) on the
// oracle's scenario distribution; tightening any of them is a model
// improvement, loosening them needs a documented reason.
// Measured over seeds 1–25 the realized errors peak at: goodput 0.16,
// FCT p50 0.25, p90 0.18, p99 0.14, link volume 0.37.
func DefaultFluidBudget() FluidBudget {
	return FluidBudget{
		GoodputMeanRel: 0.25,
		FCTP50Rel:      0.30,
		FCTP90Rel:      0.25,
		FCTP99Rel:      0.25,
		LinkUtilRel:    0.45,
	}
}

// FluidMetric is one budget line: the packet and hybrid values, the
// realized relative error, and the budget it is held to.
type FluidMetric struct {
	Name           string
	Packet, Hybrid float64
	Err, Budget    float64
	OK             bool
}

func (m FluidMetric) String() string {
	mark := "ok"
	if !m.OK {
		mark = "OVER"
	}
	return fmt.Sprintf("%-12s packet=%.4g hybrid=%.4g err=%.1f%% budget=%.0f%% %s",
		m.Name, m.Packet, m.Hybrid, 100*m.Err, 100*m.Budget, mark)
}

// FluidReport is the outcome of checking one scenario's hybrid fidelity.
type FluidReport struct {
	Scenario   Scenario     // the hybrid variant (FluidMinBytes set)
	FluidFlows int          // scripted TCP flows moved to the fluid plane
	PacketRef  *Observation // pure-packet sequential reference
	HybridRef  *Observation // hybrid sequential reference
	Runs       []KRun       // hybrid parallel runs, diffed against HybridRef
	Metrics    []FluidMetric
}

// Failed reports whether the hybrid run diverged across engine counts,
// violated a runtime invariant, or blew the error budget.
func (r *FluidReport) Failed() bool {
	for i := range r.Runs {
		if r.Runs[i].Failed() {
			return true
		}
	}
	for _, m := range r.Metrics {
		if !m.OK {
			return true
		}
	}
	return false
}

// relErr is the relative error of got against want, safe at want = 0.
func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// percentile returns the p-quantile (0 < p ≤ 1) of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// fluidMetrics computes the budget lines from the two references. The
// per-flow series covers exactly the fluidized script entries; a flow
// unfinished at the horizon is censored to it (its realized service so
// far still counts through goodput's censored FCT).
func fluidMetrics(s *script, packet, hybrid *Observation, budget FluidBudget) []FluidMetric {
	horizon := float64(s.sc.Horizon)
	var goodErrSum float64
	var fctP, fctH []float64
	for _, ti := range s.fluidOf {
		f := s.tcp[ti]
		censor := func(done float64) float64 {
			if done == 0 || done > horizon {
				return horizon - float64(f.at)
			}
			return done - float64(f.at)
		}
		fp := censor(float64(packet.TCPRecv[ti]))
		fh := censor(float64(hybrid.TCPRecv[ti]))
		fctP = append(fctP, fp)
		fctH = append(fctH, fh)
		goodErrSum += relErr(float64(f.bytes)*8/fh, float64(f.bytes)*8/fp)
	}
	sort.Float64s(fctP)
	sort.Float64s(fctH)
	n := float64(len(s.fluidOf))

	var pktBits, l1 float64
	for l := range packet.LinkBits {
		pb := float64(packet.LinkBits[l])
		hb := float64(hybrid.LinkBits[l])
		if hybrid.FluidLinkBits != nil {
			hb += float64(hybrid.FluidLinkBits[l])
		}
		pktBits += pb
		l1 += math.Abs(hb - pb)
	}

	line := func(name string, pv, hv, budget float64) FluidMetric {
		err := relErr(hv, pv)
		return FluidMetric{Name: name, Packet: pv, Hybrid: hv,
			Err: err, Budget: budget, OK: err <= budget}
	}
	ms := []FluidMetric{
		{Name: "goodput-mean", Err: goodErrSum / n, Budget: budget.GoodputMeanRel,
			OK: goodErrSum/n <= budget.GoodputMeanRel},
		line("fct-p50", percentile(fctP, 0.50), percentile(fctH, 0.50), budget.FCTP50Rel),
		line("fct-p90", percentile(fctP, 0.90), percentile(fctH, 0.90), budget.FCTP90Rel),
		line("fct-p99", percentile(fctP, 0.99), percentile(fctH, 0.99), budget.FCTP99Rel),
	}
	util := FluidMetric{Name: "link-util", Packet: pktBits, Err: l1 / math.Max(pktBits, 1),
		Budget: budget.LinkUtilRel}
	util.OK = util.Err <= util.Budget
	ms = append(ms, util)
	return ms
}

// Fluid is the hybrid-fidelity leg: the plan of the scenario with scripted
// TCP transfers of at least minBytes (<= 0: DefaultFluidMinBytes) moved to
// the fluid plane, checked across every configured engine count, plus — on
// churn-free scenarios — the error budget of its reference against this
// plan's pure-packet one. Churn scenarios skip the budget (packet TCP under
// loss and the loss-free fluid model measure different things there; what
// churn pins is that hybrid reconvergence stays engine-count-independent).
func (p *Plan) Fluid(minBytes, quantumNS int64, budget FluidBudget) (*FluidReport, error) {
	sc := p.Scenario
	sc.FluidMinBytes, sc.FluidQuantumNS = minBytes, quantumNS
	if minBytes <= 0 {
		sc = Fluid(sc)
	}
	hybrid, err := p.of(sc)
	if err != nil {
		return nil, err
	}
	scripted := newScript(sc, hybrid.st.Hosts)
	if len(scripted.fluidOf) == 0 {
		// Seed drew no transfer over the threshold: nothing to check
		// beyond plain conformance, which the packet dimension owns.
		return &FluidReport{Scenario: sc}, nil
	}
	check, err := hybrid.Check()
	if err != nil {
		return nil, err
	}
	rep := &FluidReport{
		Scenario: sc, FluidFlows: len(scripted.fluidOf),
		HybridRef: hybrid.Ref, Runs: check.Runs,
	}
	if sc.ChurnEvents == 0 && sc.Faults == nil {
		psc := sc
		psc.FluidMinBytes, psc.FluidQuantumNS = 0, 0
		packet, err := p.of(psc)
		if err != nil {
			return nil, err
		}
		rep.PacketRef = packet.Ref
		rep.Metrics = fluidMetrics(scripted, packet.Ref, hybrid.Ref, budget)
	}
	return rep, nil
}
