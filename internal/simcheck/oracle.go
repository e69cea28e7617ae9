package simcheck

import (
	"context"
	"fmt"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/experiments"
	"massf/internal/fluid"
	"massf/internal/model"
	"massf/internal/netmon"
	"massf/internal/pdes"
	"massf/internal/telemetry"
	"massf/internal/traffic"
)

// Observation is the partition-independent view of one simulation run —
// everything that must be byte-identical between the sequential reference
// and a parallel run of the same scenario. Partition-*dependent* outputs
// (ModeledTimeNS, per-engine event counts, window counts, queue depths)
// are deliberately excluded: they describe the execution, not the model.
type Observation struct {
	TotalEvents     uint64
	DeliveredBits   uint64
	Dropped         uint64
	Retransmissions uint64
	FlowsStarted    int
	FlowsCompleted  int
	LastCompletion  des.Time

	NodeEvents []uint64 // per router/host: kernel events attributed
	LinkBits   []uint64 // per link: carried bits
	LinkDrops  []uint64 // per link: tail drops
	FaultDrops []uint64 // per scripted fault: loss attributed (churn scenarios)

	TCPDone []des.Time // per scripted TCP flow: completion time (0 = never)
	TCPRecv []des.Time // per scripted TCP flow: full delivery at receiver
	UDPRecv []des.Time // per scripted UDP send: delivery time (0 = dropped)

	HTTPRequests  uint64
	HTTPResponses uint64

	// Fluid* mirror the hybrid run's flow-level counters (zero on pure
	// packet runs). Fluidized scripted-TCP completions land in TCPDone /
	// TCPRecv like their packet counterparts, so the per-flow merge and
	// diff machinery covers both fidelities with one code path.
	FluidStarted        int      `json:",omitempty"`
	FluidCompleted      int      `json:",omitempty"`
	FluidDeliveredBits  uint64   `json:",omitempty"`
	FluidLastCompletion des.Time `json:",omitempty"`
	FluidLinkBits       []uint64 `json:",omitempty"` // per link: fluid wire bits

	// PathSpans are the netmon-sampled packet-path spans of an
	// instrumented run (Scenario.NetSample > 0). They are OUTPUT of the
	// observability plane, not a model observable, so Diff ignores them;
	// MergeObservations concatenates worker partials so a distributed
	// run's cross-worker paths can be stitched and audited.
	PathSpans []netmon.HopSpan `json:",omitempty"`

	// Worker build accounting, set only on distributed worker partials:
	// how long this worker spent materializing the scenario, its post-run
	// live heap and process peak RSS, and the bytes of OSPF tables it holds.
	// These describe the EXECUTION, not the model, so Diff excludes them
	// and MergeObservations leaves them per-partial (DistReport collects
	// them as WorkerMem). Note the loopback workers Plan.Distributed runs
	// when given no listener share one heap, so HeapInuse/PeakRSS are only
	// per-worker-meaningful for real worker processes (massfd -worker);
	// BuildNS and RouteBytes are always per-worker.
	BuildNS    int64  `json:",omitempty"`
	HeapInuse  uint64 `json:",omitempty"`
	PeakRSS    uint64 `json:",omitempty"`
	RouteBytes int64  `json:",omitempty"`
	SliceNodes int    `json:",omitempty"` // owned nodes of a sliced build
}

// runOnce executes sc once on st through the launch path — its Prepare and
// Run, with sc's traffic script beside the empty application — on mapping m
// over k engines, executing as x says (x.End is set to sc's horizon) with
// tel as the flight recorder (nil: none), and captures the Observation.
func runOnce(st *experiments.Setup, sc Scenario, m *core.Mapping, k int, x experiments.Exec, tel *telemetry.SimTelemetry) (*Observation, *experiments.RunOutcome, error) {
	es := sc.launch(k)
	es.Faults = sc.effectiveFaults(st.Net)
	es.Telemetry = tel
	x.End = sc.Horizon
	src := newScript(sc, st.Hosts)
	p, err := es.Prepare(st, m, src, x)
	if err != nil {
		return nil, nil, err
	}
	out := p.Run(context.Background())
	obs, err := src.observe(p, out)
	return obs, out, err
}

// script is the oracle's experiments.Traffic, one per run: the scenario's
// scripted TCP transfers and UDP datagrams, then its optional background
// HTTP — installed in that order — with every completion recorded in the
// run's Observation. At hybrid fidelity the transfers of at least
// FluidMinBytes are modeled on the fluid plane instead, on the scenario's
// exact nanosecond quantum.
type script struct {
	sc       Scenario
	hosts    []model.NodeID
	tcp, udp []transfer
	fluidOf  []int // fluid flow index → tcp script index
	obs      *Observation
}

func newScript(sc Scenario, hosts []model.NodeID) *script {
	s := &script{sc: sc, hosts: hosts}
	s.tcp, s.udp = sc.transfers(hosts)
	for i, f := range s.tcp {
		if s.fluid(f) {
			s.fluidOf = append(s.fluidOf, i)
		}
	}
	s.obs = &Observation{
		TCPDone: make([]des.Time, len(s.tcp)),
		TCPRecv: make([]des.Time, len(s.tcp)),
		UDPRecv: make([]des.Time, len(s.udp)),
	}
	return s
}

// fluid reports whether the scripted TCP transfer f runs on the fluid plane.
func (s *script) fluid(f transfer) bool {
	return s.sc.FluidMinBytes > 0 && f.bytes >= s.sc.FluidMinBytes
}

func (s *script) Fluid(des.Time) ([]fluid.Flow, func(int32, des.Time) (fluid.Flow, bool), des.Time) {
	var flows []fluid.Flow
	for _, i := range s.fluidOf {
		f := s.tcp[i]
		flows = append(flows, fluid.Flow{Src: f.src, Dst: f.dst, Bytes: f.bytes, Start: f.at, Chain: -1})
	}
	return flows, nil, des.Time(s.sc.FluidQuantumNS)
}

func (s *script) Install(p *experiments.Prepared) {
	obs := s.obs
	for i, f := range s.tcp {
		if s.fluid(f) {
			continue // modeled on the fluid plane; completion read post-run
		}
		p.Sim.StartFlowRecv(f.at, f.src, f.dst, f.bytes,
			func(at des.Time) { obs.TCPDone[i] = at },
			func(at des.Time) { obs.TCPRecv[i] = at })
	}
	for i, u := range s.udp {
		p.Sim.SendUDP(u.at, u.src, u.dst, u.bytes,
			func(at des.Time) { obs.UDPRecv[i] = at })
	}
	if clients, servers := s.sc.httpEndpoints(s.hosts); len(clients) > 0 {
		p.HTTP = traffic.InstallHTTP(p.Sim, traffic.HTTPConfig{
			Clients: clients, Servers: servers,
			MeanGap: 30 * des.Millisecond, MeanFileBytes: 20_000,
			Seed: s.sc.Seed + 7,
		})
	}
}

// observe completes the run's Observation from what p's run produced.
func (s *script) observe(p *experiments.Prepared, out *experiments.RunOutcome) (*Observation, error) {
	res := &out.Result
	if res.Err != nil {
		return nil, res.Err
	}
	obs := s.obs
	obs.TotalEvents = res.TotalEvents
	obs.DeliveredBits = res.DeliveredBits
	obs.Dropped = res.Dropped
	obs.Retransmissions = res.Retransmissions
	obs.FlowsStarted = res.FlowsStarted
	obs.FlowsCompleted = res.FlowsCompleted
	obs.LastCompletion = res.LastCompletion
	obs.NodeEvents = res.NodeEvents
	obs.LinkBits = res.LinkBits
	obs.LinkDrops = res.LinkDrops
	obs.FaultDrops = res.FaultDrops
	if out.HTTP != nil {
		obs.HTTPRequests = out.HTTP.TotalRequests()
		obs.HTTPResponses = out.HTTP.TotalResponses()
	}
	if len(s.fluidOf) > 0 {
		obs.FluidStarted = res.FluidStarted
		obs.FluidCompleted = res.FluidCompleted
		obs.FluidDeliveredBits = res.FluidDeliveredBits
		obs.FluidLastCompletion = res.FluidLastCompletion
		obs.FluidLinkBits = res.FluidLinkBits
		// FluidDone is hosted-filtered, so each scripted completion lands
		// on exactly one worker — the same contract packet TCPDone merges
		// rely on. Fluid transfers have no separate sender-done/receiver
		// -done distinction; the analytic completion fills both slots.
		for fi, ti := range s.fluidOf {
			if d := res.FluidDone[fi]; d != 0 {
				obs.TCPDone[ti], obs.TCPRecv[ti] = d, d
			}
		}
	}
	if mon := p.NetMon(); mon != nil {
		obs.PathSpans = mon.Spans()
	}
	return obs, nil
}

// Divergence is one observable difference between the sequential reference
// and a parallel run.
type Divergence struct {
	Field string
	Index int // -1 for scalar fields
	Seq   string
	Par   string
	// At is the earliest simulated time the divergence is attributable to
	// (time-valued fields only; 0 when unknown). The barrier window whose
	// [start_ns, end_ns) holds it in a trace of the run is where to look.
	At des.Time
}

func (d Divergence) String() string {
	if d.Index >= 0 {
		return fmt.Sprintf("%s[%d]: seq=%s par=%s", d.Field, d.Index, d.Seq, d.Par)
	}
	return fmt.Sprintf("%s: seq=%s par=%s", d.Field, d.Seq, d.Par)
}

// KRun is the outcome of comparing one parallel engine count against the
// sequential reference.
type KRun struct {
	K           int
	Window      des.Time
	Windows     int // barrier windows executed (for trace attribution)
	MLL         des.Time
	Obs         *Observation
	Divergences []Divergence
	Violations  []pdes.Violation
}

// Failed reports whether this run diverged or violated an invariant.
func (kr *KRun) Failed() bool { return len(kr.Divergences) > 0 || len(kr.Violations) > 0 }

// DivergedAt returns the earliest time-attributable divergence's time; ok
// is false when no divergence carries a time.
func (kr *KRun) DivergedAt() (at des.Time, ok bool) {
	at = des.EndOfTime
	for _, d := range kr.Divergences {
		if d.At > 0 && d.At < at {
			at = d.At
		}
	}
	if at == des.EndOfTime {
		return 0, false
	}
	return at, true
}

// Report is the outcome of checking one scenario.
type Report struct {
	Scenario Scenario
	Ref      *Observation
	Runs     []KRun
}

// Failed reports whether any parallel run diverged or violated an
// invariant.
func (r *Report) Failed() bool {
	for i := range r.Runs {
		if r.Runs[i].Failed() {
			return true
		}
	}
	return false
}

// Diff compares a parallel observation against the sequential reference
// and returns every difference. Slice fields are compared element-wise;
// time-valued per-flow fields record the earlier of the two times as the
// divergence's attributable simulated time.
func Diff(seq, par *Observation) []Divergence {
	var ds []Divergence
	scalar := func(field string, a, b uint64) {
		if a != b {
			ds = append(ds, Divergence{Field: field, Index: -1,
				Seq: fmt.Sprint(a), Par: fmt.Sprint(b)})
		}
	}
	scalar("TotalEvents", seq.TotalEvents, par.TotalEvents)
	scalar("DeliveredBits", seq.DeliveredBits, par.DeliveredBits)
	scalar("Dropped", seq.Dropped, par.Dropped)
	scalar("Retransmissions", seq.Retransmissions, par.Retransmissions)
	scalar("FlowsStarted", uint64(seq.FlowsStarted), uint64(par.FlowsStarted))
	scalar("FlowsCompleted", uint64(seq.FlowsCompleted), uint64(par.FlowsCompleted))
	scalar("HTTPRequests", seq.HTTPRequests, par.HTTPRequests)
	scalar("HTTPResponses", seq.HTTPResponses, par.HTTPResponses)
	scalar("FluidStarted", uint64(seq.FluidStarted), uint64(par.FluidStarted))
	scalar("FluidCompleted", uint64(seq.FluidCompleted), uint64(par.FluidCompleted))
	scalar("FluidDeliveredBits", seq.FluidDeliveredBits, par.FluidDeliveredBits)
	if seq.FluidLastCompletion != par.FluidLastCompletion {
		ds = append(ds, Divergence{Field: "FluidLastCompletion", Index: -1,
			Seq: seq.FluidLastCompletion.String(), Par: par.FluidLastCompletion.String(),
			At: minTime(seq.FluidLastCompletion, par.FluidLastCompletion)})
	}
	if seq.LastCompletion != par.LastCompletion {
		ds = append(ds, Divergence{Field: "LastCompletion", Index: -1,
			Seq: seq.LastCompletion.String(), Par: par.LastCompletion.String(),
			At: minTime(seq.LastCompletion, par.LastCompletion)})
	}
	uslice := func(field string, a, b []uint64) {
		if len(a) != len(b) {
			ds = append(ds, Divergence{Field: field + ".len", Index: -1,
				Seq: fmt.Sprint(len(a)), Par: fmt.Sprint(len(b))})
			return
		}
		for i := range a {
			if a[i] != b[i] {
				ds = append(ds, Divergence{Field: field, Index: i,
					Seq: fmt.Sprint(a[i]), Par: fmt.Sprint(b[i])})
			}
		}
	}
	uslice("NodeEvents", seq.NodeEvents, par.NodeEvents)
	uslice("LinkBits", seq.LinkBits, par.LinkBits)
	uslice("LinkDrops", seq.LinkDrops, par.LinkDrops)
	uslice("FaultDrops", seq.FaultDrops, par.FaultDrops)
	uslice("FluidLinkBits", seq.FluidLinkBits, par.FluidLinkBits)
	tslice := func(field string, a, b []des.Time) {
		if len(a) != len(b) {
			ds = append(ds, Divergence{Field: field + ".len", Index: -1,
				Seq: fmt.Sprint(len(a)), Par: fmt.Sprint(len(b))})
			return
		}
		for i := range a {
			if a[i] != b[i] {
				ds = append(ds, Divergence{Field: field, Index: i,
					Seq: a[i].String(), Par: b[i].String(),
					At: minTime(a[i], b[i])})
			}
		}
	}
	tslice("TCPDone", seq.TCPDone, par.TCPDone)
	tslice("TCPRecv", seq.TCPRecv, par.TCPRecv)
	tslice("UDPRecv", seq.UDPRecv, par.UDPRecv)
	return ds
}

func minTime(a, b des.Time) des.Time {
	if a == 0 {
		return b
	}
	if b != 0 && b < a {
		return b
	}
	return a
}
