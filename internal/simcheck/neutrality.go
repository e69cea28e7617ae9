// Observer neutrality: the netmon observability plane must be a pure
// observer. Attaching it to a run — sequential or distributed — may not
// change a single observable, and the packet paths it samples must be
// both partition-independent and consistent with the routing actually in
// force. Plan.Neutrality is the conformance dimension proving all three.

package simcheck

import (
	"fmt"
	"reflect"
	"sort"

	"massf/internal/des"
	"massf/internal/model"
	"massf/internal/netmon"
	"massf/internal/netsim"
)

// NeutralityReport is the outcome of one observer-neutrality check: the
// scenario run instrumented, N=1 and N=k, with every instrumented
// observation diffed against the plan's uninstrumented reference.
type NeutralityReport struct {
	Scenario Scenario
	Sample   int // path-sampling stride the instrumented legs used
	K        int
	Window   des.Time

	DivsSeq []Divergence // instrumented N=1 vs plain N=1
	DivsPar []Divergence // instrumented N=k vs plain N=1

	// SpansDiverge is set when the instrumented sequential and parallel
	// runs sampled different span sets (modulo the recording engine):
	// sampling leaked partition state into the observation.
	SpansDiverge       bool
	SeqSpans, ParSpans int

	// Paths audits the parallel run's sampled traces against the route
	// table; Complete counts the ones that reached their destination.
	Paths    []TracePath
	Complete int
}

// Failed reports whether instrumentation perturbed the run.
func (r *NeutralityReport) Failed() bool {
	return len(r.DivsSeq) > 0 || len(r.DivsPar) > 0 || r.SpansDiverge
}

// String is the one-line summary used by the cmd layer.
func (r *NeutralityReport) String() string {
	verdict := "NEUTRAL"
	if r.Failed() {
		verdict = fmt.Sprintf("PERTURBED (seq=%d par=%d spans-diverge=%v)",
			len(r.DivsSeq), len(r.DivsPar), r.SpansDiverge)
	}
	return fmt.Sprintf("netmon k=%d sample=%d spans=%d paths=%d/%d: %s",
		r.K, r.Sample, r.ParSpans, r.Complete, len(r.Paths), verdict)
}

// Neutrality is the observer-neutrality leg: beside the plan's plain
// reference it runs the scenario instrumented — sequentially and on k
// engines, on the plan's Setup and mappings (NetSample does not influence
// the build) — and verifies the netmon plane observed without perturbing:
// all observations identical, sampled spans identical across
// partitionings, and every sampled path consistent with the routes.
// sample <= 0 defaults to stride 4.
func (p *Plan) Neutrality(k, sample int) (*NeutralityReport, error) {
	if sample <= 0 {
		sample = 4
	}
	plain := p.Scenario
	plain.NetSample = 0
	base, err := p.of(plain)
	if err != nil {
		return nil, err
	}
	inst := plain
	inst.NetSample = sample
	instSeq, err := base.runK(inst, 1, false, nil)
	if err != nil {
		return nil, fmt.Errorf("simcheck: instrumented sequential run: %w", err)
	}
	instPar, err := base.runK(inst, k, false, nil)
	if err != nil {
		return nil, err
	}
	spans := instPar.Obs.PathSpans

	rep := &NeutralityReport{
		Scenario: p.Scenario, Sample: sample, K: k, Window: instPar.Window,
		DivsSeq: instSeq.Divergences, DivsPar: instPar.Divergences,
		SeqSpans: len(instSeq.Obs.PathSpans), ParSpans: len(spans),
	}
	rep.SpansDiverge = !spansEqualModuloEngine(instSeq.Obs.PathSpans, spans)
	rep.Paths = AuditTraces(base.st.Net, base.st.Router, spans)
	for _, p := range rep.Paths {
		if p.Complete {
			rep.Complete++
		}
	}
	return rep, nil
}

// spansEqualModuloEngine compares two span sets ignoring the engine that
// recorded each span — the one field that legitimately depends on the
// partition.
func spansEqualModuloEngine(a, b []netmon.HopSpan) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]netmon.HopSpan(nil), a...), append([]netmon.HopSpan(nil), b...)
	for i := range a {
		a[i].Engine, b[i].Engine = 0, 0
	}
	return reflect.DeepEqual(a, b)
}

// TracePath is the audit verdict for one sampled packet: whether the
// recorded hop chain walks the forwarding table from source toward
// destination without gaps, and which engines contributed spans (a
// cross-worker path shows more than one).
type TracePath struct {
	Trace    uint64
	Src, Dst model.NodeID
	Ack      bool
	Hops     int
	Engines  []int // distinct recording engines, ascending
	Complete bool  // chain reached Dst with a deliver span
	Err      string
}

// AuditTraces replays every sampled trace against the forwarding function:
// each hop span must start at the node the previous hop handed the packet
// to and use exactly the link NextLink selects for it. Only meaningful for
// scenarios with static routing (no fault churn) — under churn the route
// in force at sampling time may differ from the final table.
func AuditTraces(nw *model.Network, routes netsim.Routes, spans []netmon.HopSpan) []TracePath {
	sorted := append([]netmon.HopSpan(nil), spans...)
	netmon.SortSpans(sorted)
	var out []TracePath
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].Trace == sorted[i].Trace {
			j++
		}
		out = append(out, auditOne(nw, routes, sorted[i:j]))
		i = j
	}
	return out
}

// auditOne walks one trace's spans. Packets originate at span Src for data
// and ACKs alike (an ACK's Src is the data receiver), so the walk always
// starts there.
func auditOne(nw *model.Network, routes netsim.Routes, spans []netmon.HopSpan) TracePath {
	first := spans[0]
	p := TracePath{Trace: first.Trace, Src: first.Src, Dst: first.Dst, Ack: first.Ack}
	engines := map[int]bool{}
	cur := p.Src
	for _, sp := range spans {
		engines[sp.Engine] = true
		switch sp.Kind {
		case netmon.SpanHop:
			if sp.Node != cur {
				p.Err = fmt.Sprintf("hop %d at node %d, expected %d", p.Hops, sp.Node, cur)
				break
			}
			want := routes.NextLink(cur, p.Dst)
			if sp.Link != want {
				p.Err = fmt.Sprintf("hop %d from node %d took link %d, route says %d",
					p.Hops, cur, sp.Link, want)
				break
			}
			cur = nw.Links[sp.Link].Other(cur)
			p.Hops++
		case netmon.SpanDeliver:
			if sp.Node != p.Dst || cur != p.Dst {
				p.Err = fmt.Sprintf("delivered at node %d, destination %d (walk at %d)",
					sp.Node, p.Dst, cur)
				break
			}
			p.Complete = true
		default:
			// A drop span legitimately terminates the path short.
		}
		if p.Err != "" {
			break
		}
	}
	for e := range engines {
		p.Engines = append(p.Engines, e)
	}
	sort.Ints(p.Engines)
	return p
}
