// Package simcheck is the sequential-vs-parallel conformance oracle: it
// generates seeded random scenarios (topology, traffic mix, partition
// count, mapping approach), runs each one sequentially (N=1) and in
// parallel (N=k), and diffs the full per-flow/per-router statistics. The
// conservative engine is supposed to be *observably equivalent* to the
// sequential DES it speeds up — MaSSF inherits DaSSF semantics — so any
// divergence is a bug in the exchange/lookahead machinery, the partition,
// or a model that secretly depends on engine count. Runs execute with the
// pdes runtime invariant hooks attached, so causality violations are
// reported directly with their window/engine/event coordinates rather
// than only as downstream stat drift.
package simcheck

import (
	"fmt"
	"math/rand"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/experiments"
	"massf/internal/faults"
	"massf/internal/model"
	"massf/internal/netsim"
	"massf/internal/runspec"
)

// Scenario is one generated conformance case. Every field derives
// deterministically from Seed (see NewScenario), so a failing seed is a
// complete reproducer; fields are exported so the shrinker and tests can
// construct reduced variants directly.
type Scenario struct {
	Seed    int64
	MultiAS bool
	// Flat topology (MultiAS false).
	Routers int
	// Multi-AS topology (MultiAS true).
	ASes, RoutersPerAS int
	Hosts              int
	// Traffic mix: scripted TCP transfers, scripted UDP datagrams, and
	// optional background HTTP clients/servers.
	TCPFlows, UDPSends       int
	HTTPClients, HTTPServers int
	Horizon                  des.Time
	// Approach maps the network onto k engines for the parallel runs.
	Approach core.Approach
	// Ks lists the parallel engine counts to compare against N=1.
	Ks []int
	// Fault churn: ChurnEvents > 0 generates a ChurnSeed-seeded fault
	// script at build time, injected identically into the reference and
	// every parallel run — the churn conformance dimension proves routing
	// reconvergence is engine-count-independent too. An explicit Faults
	// script wins over generation (the shrinker materializes one so a
	// reproducer's JSON carries the exact fault timeline).
	ChurnEvents int            `json:",omitempty"`
	ChurnSeed   int64          `json:",omitempty"`
	Faults      *faults.Script `json:",omitempty"`
	// NetSample > 0 attaches the netmon observability plane to every run
	// of the scenario, path-sampling every NetSample-th packet. Used by
	// the observer-neutrality dimension: instrumented runs must produce
	// byte-identical Observations (netmon output itself is excluded from
	// the diff — it is observation, not model state).
	NetSample int `json:",omitempty"`
	// FluidMinBytes > 0 runs the scenario at hybrid fidelity: scripted
	// TCP transfers of at least this many bytes move to the analytic
	// fluid plane (max-min fair-share rates per link-share epoch) while
	// everything else stays packet-level. The hybrid-fidelity dimension
	// proves the plane is engine-count-independent (byte-identical
	// Observations across k) and, separately, within the error budget of
	// the pure-packet run of the same scenario (see Plan.Fluid).
	FluidMinBytes int64 `json:",omitempty"`
	// FluidQuantumNS > 0 batches fluid rate recomputation onto this grid
	// (the scale knob); 0 recomputes exactly at every flow start/finish.
	FluidQuantumNS int64 `json:",omitempty"`
}

// DefaultFluidMinBytes is the scripted-TCP fluidization threshold the
// -fluid dimension uses: transfers this large are "bulk" (many RTTs, rate
// dominated by fair-share bandwidth, which the fluid model captures);
// smaller transfers are latency-dominated and stay packet-level.
const DefaultFluidMinBytes = 30_000

// Fluid returns sc with the hybrid-fidelity dimension enabled at the
// default fluidization threshold.
func Fluid(sc Scenario) Scenario {
	sc.FluidMinBytes = DefaultFluidMinBytes
	return sc
}

// NewScenario derives a scenario from a seed. The distribution covers both
// topology families, all three mapping families (RANDOM / topology-based /
// profile-based hierarchical), and mixed TCP+UDP+HTTP traffic. RANDOM
// mappings get short horizons: a random cut's MLL can sit at the latency
// model's 10 µs floor, so its window count per simulated second is three
// orders of magnitude above a TOP2/HPROF cut's.
func NewScenario(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{Seed: seed, Ks: []int{2, 4, 8}}
	sc.MultiAS = rng.Intn(3) == 0
	if sc.MultiAS {
		sc.ASes = 4 + rng.Intn(4)
		sc.RoutersPerAS = 8 + rng.Intn(7)
		sc.Hosts = 24 + rng.Intn(17)
	} else {
		sc.Routers = 40 + rng.Intn(61)
		sc.Hosts = 30 + rng.Intn(31)
	}
	sc.TCPFlows = 8 + rng.Intn(17)
	sc.UDPSends = 8 + rng.Intn(25)
	if rng.Intn(2) == 0 {
		sc.HTTPClients = 2 + rng.Intn(3)
		sc.HTTPServers = 2
	}
	switch rng.Intn(3) {
	case 0:
		sc.Approach = core.RANDOM
		sc.Horizon = des.Time(60+rng.Intn(90)) * des.Millisecond
	case 1:
		sc.Approach = core.TOP2
		sc.Horizon = des.Time(400+rng.Intn(400)) * des.Millisecond
	default:
		sc.Approach = core.HPROF
		sc.Horizon = des.Time(400+rng.Intn(400)) * des.Millisecond
	}
	return sc
}

// Churn returns sc with seeded fault churn enabled: 3–6 fault incidents
// whose script derives deterministically from the scenario seed.
func Churn(sc Scenario) Scenario {
	rng := rand.New(rand.NewSource(sc.Seed ^ 0xfa017c4a2))
	sc.ChurnEvents = 3 + rng.Intn(4)
	sc.ChurnSeed = rng.Int63()
	return sc
}

// effectiveFaults resolves the fault script every run of this scenario
// shares: the explicit script if set, else seeded generation; nil when
// either leaves no event.
func (sc Scenario) effectiveFaults(net *model.Network) *faults.Script {
	f := sc.Faults
	if f == nil && sc.ChurnEvents > 0 {
		f = faults.Generate(net, faults.GenOptions{
			Seed: sc.ChurnSeed, Events: sc.ChurnEvents, Horizon: sc.Horizon,
		})
	}
	if f == nil || len(f.Events) == 0 {
		return nil
	}
	return f
}

// Materialized converts seeded churn into the explicit Faults script it
// generates, so a serialized reproducer carries the exact fault timeline
// instead of a (seed, count) recipe tied to this binary's generator.
func (sc Scenario) Materialized() (Scenario, error) {
	if sc.Faults != nil || sc.ChurnEvents <= 0 {
		return sc, nil
	}
	es := sc.launch(1)
	net, _, err := es.Network()
	if err != nil {
		return sc, err
	}
	sc.Faults = sc.effectiveFaults(net)
	sc.ChurnEvents, sc.ChurnSeed = 0, 0
	return sc, nil
}

// String is the one-line form used in reports.
func (sc Scenario) String() string {
	topo := fmt.Sprintf("flat(r=%d,h=%d)", sc.Routers, sc.Hosts)
	if sc.MultiAS {
		topo = fmt.Sprintf("multi-as(as=%d,r/as=%d,h=%d)", sc.ASes, sc.RoutersPerAS, sc.Hosts)
	}
	churn := ""
	if sc.Faults != nil {
		churn = fmt.Sprintf(" faults=%d", len(sc.Faults.Events))
	} else if sc.ChurnEvents > 0 {
		churn = fmt.Sprintf(" churn=%d", sc.ChurnEvents)
	}
	fluid := ""
	if sc.FluidMinBytes > 0 {
		fluid = fmt.Sprintf(" fluid≥%d", sc.FluidMinBytes)
	}
	return fmt.Sprintf("seed=%d %s %s tcp=%d udp=%d http=%d horizon=%v%s%s ks=%v",
		sc.Seed, topo, sc.Approach, sc.TCPFlows, sc.UDPSends, sc.HTTPClients, sc.Horizon, churn, fluid, sc.Ks)
}

// launch is the scenario as the launch path describes it, run on k
// engines: the topology source built from its fields, the same seed and
// approach, no application workload — the scripted traffic is the run's
// own (see script) — and netmon attached at the path-sampling stride.
func (sc Scenario) launch(k int) experiments.Scenario {
	es := experiments.Scenario{
		Approach: sc.Approach.String(), App: "none",
		RunSpec: runspec.RunSpec{Engines: k, Seed: sc.Seed, NetSample: sc.NetSample},
	}
	if sc.MultiAS {
		es.MultiAS = &experiments.MultiASSpec{ASes: sc.ASes, RoutersPerAS: sc.RoutersPerAS, Hosts: sc.Hosts}
	} else {
		es.Flat = &experiments.FlatSpec{Routers: sc.Routers, Hosts: sc.Hosts}
	}
	return es
}

// setup is the launch path's Network and Build steps for an in-process run:
// the network, routing built toward every host, and the host list.
func (sc Scenario) setup() (*experiments.Setup, error) {
	es := sc.launch(1)
	net, multi, err := es.Network()
	if err != nil {
		return nil, err
	}
	return es.Build(net, multi, experiments.Exec{})
}

// Build constructs the scenario's network, routing (complete when built,
// so the parallel run only reads it), and the host list traffic endpoints
// draw from.
func (sc Scenario) Build() (*model.Network, netsim.Routes, []model.NodeID, error) {
	st, err := sc.setup()
	if err != nil {
		return nil, nil, nil, err
	}
	return st.Net, st.Router, st.Hosts, nil
}

// transfer is one scripted send. The script is derived from the seed once
// and replayed identically into the sequential and every parallel run.
type transfer struct {
	at       des.Time
	src, dst model.NodeID
	bytes    int64
}

// pick returns two distinct hosts.
func pick(rng *rand.Rand, hosts []model.NodeID) (model.NodeID, model.NodeID) {
	a := rng.Intn(len(hosts))
	b := rng.Intn(len(hosts) - 1)
	if b >= a {
		b++
	}
	return hosts[a], hosts[b]
}

// transfers derives the deterministic traffic script: TCPFlows transfers
// of 2–122 kB and UDPSends datagrams of 200–1400 B. Start times land in
// the first half of the horizon so most transfers complete before the end.
func (sc Scenario) transfers(hosts []model.NodeID) (tcp, udp []transfer) {
	rng := rand.New(rand.NewSource(sc.Seed ^ 0x7eaff1c5eed))
	draw := func(n int, base, spread int64) []transfer {
		ts := make([]transfer, n)
		for i := range ts {
			src, dst := pick(rng, hosts)
			ts[i] = transfer{
				at:    des.Time(rng.Int63n(int64(sc.Horizon / 2))),
				src:   src,
				dst:   dst,
				bytes: base + rng.Int63n(spread),
			}
		}
		return ts
	}
	tcp = draw(sc.TCPFlows, 2000, 120_000)
	udp = draw(sc.UDPSends, 200, 1200)
	return tcp, udp
}

// httpEndpoints carves the background-HTTP client and server hosts off the
// tail of the host list (the scripted flows draw from the whole list;
// overlap is fine — hosts multiplex).
func (sc Scenario) httpEndpoints(hosts []model.NodeID) (clients, servers []model.NodeID) {
	if sc.HTTPClients == 0 || len(hosts) < sc.HTTPClients+sc.HTTPServers {
		return nil, nil
	}
	n := len(hosts)
	return hosts[n-sc.HTTPClients:], hosts[n-sc.HTTPClients-sc.HTTPServers : n-sc.HTTPClients]
}
