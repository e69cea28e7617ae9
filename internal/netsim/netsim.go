// Package netsim is the packet-level network model on top of the parallel
// engine: store-and-forward routers, drop-tail queued links with bandwidth
// and propagation delay, hop-by-hop IP forwarding through a pluggable
// routing function, and TCP/UDP transport (tcp.go). It corresponds to the
// "Network Modeling" component of MaSSF (Figure 1 of the paper).
//
// Every virtual node is assigned to a simulation engine by the partition
// (the mapping produced by the load balance approaches of internal/core);
// per-node and per-link-direction mutable state is touched only by the
// owning engine's goroutine, so the simulation runs without locks. Packets
// crossing the partition ride pdes remote events, whose conservative
// window guarantee is exactly the partition's minimum cut link latency.
package netsim

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"massf/internal/cluster"
	"massf/internal/des"
	"massf/internal/fluid"
	"massf/internal/model"
	"massf/internal/netmon"
	"massf/internal/pdes"
	"massf/internal/telemetry"
)

// Routes resolves hop-by-hop forwarding: the link on which cur forwards a
// packet destined to dst, or -1 to drop. Implementations must be safe for
// concurrent readers.
type Routes interface {
	NextLink(cur, dst model.NodeID) model.LinkID
}

// FaultPlane is the scripted-churn hook (implemented by faults.Plane; an
// interface here to keep netsim decoupled from the routing stack). Every
// method must be a pure function of simulated time — concurrent engines
// and distributed workers query it independently and must see
// identical answers — and safe for concurrent use.
type FaultPlane interface {
	// NumFaults is the expanded fault-event count; FaultAt gives event i's
	// physical time. Used to schedule telemetry marker events.
	NumFaults() int
	FaultAt(i int) des.Time
	// FaultConvergeNS and FaultRoutesAt describe event i's modeled
	// reconvergence (for telemetry gauges).
	FaultConvergeNS(i int) int64
	FaultRoutesAt(i int) des.Time
	// NextLink is time-aware forwarding: the routing regime in force at
	// now decides the hop.
	NextLink(now des.Time, cur, dst model.NodeID) model.LinkID
	// LinkUp / NodeUp report physical element state at now; when down, the
	// second result is the responsible fault index (for loss attribution).
	LinkUp(now des.Time, lid model.LinkID) (bool, int)
	NodeUp(now des.Time, n model.NodeID) (bool, int)
}

// Config configures a network simulation.
type Config struct {
	// Net is the virtual network.
	Net *model.Network
	// Routes is the forwarding function (ospf.Domain, interdomain.Router).
	Routes Routes
	// Part assigns every node to an engine; nil means everything on
	// engine 0.
	Part []int32
	// Engines is the engine-node count N.
	Engines int
	// Window is the conservative window — must be at most the minimum
	// latency among links cut by Part.
	Window des.Time
	// End is the simulated horizon.
	End des.Time
	// Sync, EventCost, Seed, SeriesBuckets, RealTimeFactor: see pdes.Config.
	Sync           cluster.SyncCostModel
	EventCost      des.Time
	Seed           int64
	SeriesBuckets  int
	RealTimeFactor float64
	// QueueBytes is the per-link-direction buffer. Default 131072 (128
	// KB), i.e. ≈1 ms at 1 Gbps.
	QueueBytes int64
	// Telemetry, when non-nil, receives live observability data: the
	// engine-level per-window records (see pdes.Config.Telemetry) plus
	// network counters — transmitted link bits (utilization), queue
	// drops, TCP retransmissions, delivered payload, and flow counts.
	// Nil disables all instrumentation.
	Telemetry *telemetry.SimTelemetry
	// Invariants, when non-nil, enables the parallel engine's runtime
	// invariant checks (lookahead/causality, exchange parity, drain order,
	// kernel structure) for this simulation; see pdes.Invariants. Nil (the
	// default) disables them at zero per-event cost.
	Invariants *pdes.Invariants
	// NetMon, when non-nil, attaches the network observability plane:
	// per-link-direction bucketed series (bits, queue high-water, drops by
	// cause), per-flow TCP records with a completion-time histogram, and —
	// when the Mon samples — deterministic packet-path traces whose hop
	// spans ride the wire codec across distributed workers. Observation is
	// inert (the simulated event stream is unchanged; simcheck's
	// neutrality dimension enforces it) and nil costs one check per record
	// point.
	NetMon *netmon.Mon
	// Fluid, when non-nil, attaches a precomputed flow-level traffic plane
	// (hybrid fidelity): fluid load reduces the effective bandwidth and
	// queue headroom foreground packets see on each link direction, every
	// fluid completion fires one kernel event on the flow source's engine
	// (so fluid traffic shows in event counts and load profiles), and
	// fluid counters land in Result. The plane is immutable and its
	// queries are pure functions of simulated time, so distributed workers
	// holding identically-built planes stay byte-identical — build it with
	// fluid.Build from the same inputs everywhere.
	Fluid *fluid.Plane
	// Faults, when non-nil, enables the scripted fault plane: forwarding
	// becomes time-aware (NextLink consults the routing epoch in force),
	// packets touching failed links or nodes drop with per-fault
	// attribution, and each fault event fires a telemetry marker. Nil (the
	// default) keeps the static-routing hot path unchanged at a nil check
	// per hop.
	Faults FaultPlane
	// Transport, when non-nil, runs this Sim as one worker of a
	// distributed simulation (see pdes.Config.Transport): only the engines
	// in [FirstEngine, FirstEngine+HostedEngines) execute here, and
	// cross-worker packets are serialized through the netsim wire codec
	// (dist.go). Every worker runs the same setup calls but materializes
	// only its slice: setup events, TCP flow objects and fault markers are
	// instantiated only when they touch a hosted engine. Identity counters
	// still advance globally, so flow and UDP-callback wire ids agree on
	// every worker; packets for unmaterialized flows transit via wire
	// references exactly like runtime flows from other workers. Routes may
	// be a scoped router (interdomain.NewScoped) so OSPF state also stays
	// slice-local. Nil (the default) is the in-process path, unchanged.
	Transport pdes.Transport
	// FirstEngine and HostedEngines delimit the hosted engine range (only
	// meaningful with Transport). HostedEngines 0 means Engines-FirstEngine.
	FirstEngine, HostedEngines int
}

// linkDir is the mutable state of one link direction, owned by the engine
// of the transmitting node.
type linkDir struct {
	busyUntil des.Time
	bits      uint64 // transmitted bits (profiling)
	drops     uint64
	// fluidSeg caches the fluid rate-timeline segment index for this
	// direction. Owned by the transmitting engine and queried with
	// non-decreasing times, so lookups amortize to O(1); purely an
	// accelerator — the rate is a function of (dir, now) alone.
	fluidSeg int32
}

// Packet is one simulated packet, passed by value through hop events. TCP
// packets carry their flow; state partitioning (sender fields touched only
// on the source host's engine, receiver fields only on the destination's)
// keeps the simulation lock-free.
type Packet struct {
	Src, Dst model.NodeID
	Bits     int64
	Seq      int32 // data sequence (packet index within flow)
	Ack      bool
	AckNum   int32 // cumulative ack (first missing packet index)

	flow      *flow
	deliverCb func(at des.Time) // UDP delivery callback
	udpID     int32             // wire identity of deliverCb (distributed runs)
	wref      *wireRef          // wire flow reference when flow is unknown locally
	trace     uint64            // netmon path-trace id (0 = not sampled)
	ttl       int8
}

// DefaultTTL is the initial hop limit of injected packets. Forwarding
// loops (possible only with a buggy Routes implementation — the built-in
// routing is loop-free) burn the TTL and drop instead of looping forever.
const DefaultTTL = 64

// hopEvent carries a packet across one hop through the des.EventHandler
// seam: a pooled struct instead of a per-hop closure, so the forwarding
// loop — the simulator's innermost loop — allocates nothing in steady
// state. Pools are per engine and touched only by the owning goroutine:
// transmit allocates from the scheduling engine's pool, OnEvent releases
// into the executing engine's pool (they differ for cross-partition hops;
// the populations drift but the total is conserved).
type hopEvent struct {
	s    *Sim
	node model.NodeID
	link model.LinkID // link the packet arrives over (fault-plane checks)
	pkt  Packet
}

func (h *hopEvent) OnEvent(now des.Time) {
	s, node, link, pkt := h.s, h.node, h.link, h.pkt
	h.pkt = Packet{} // drop flow/callback references while pooled
	eng := s.EngineOf(node)
	s.hopFree[eng] = append(s.hopFree[eng], h)
	s.arrive(now, node, link, pkt)
}

// newHop takes a hop event from engine's pool, allocating only when the
// pool is dry (warm-up, or population drift toward another engine).
func (s *Sim) newHop(engine int) *hopEvent {
	free := s.hopFree[engine]
	if n := len(free); n > 0 {
		h := free[n-1]
		free[n-1] = nil
		s.hopFree[engine] = free[:n-1]
		return h
	}
	return &hopEvent{s: s}
}

// Sim is a configured packet-level simulation. Create with New, inject
// traffic with StartFlowRecv/SendUDP/ScheduleAt, execute with Run.
type Sim struct {
	cfg  Config
	ps   *pdes.Sim
	part []int32
	tel  *telemetry.SimTelemetry
	mon  *netmon.Mon // nil ⇒ network observability off, zero overhead

	dirs       []linkDir // 2*link+dirIndex
	nodeEvents []uint64  // per-node kernel event counts (profiling)
	queueNS    []int64   // per link: max queueing delay before tail drop

	faults     FaultPlane // nil ⇒ static routing, zero fault overhead
	faultDrops [][]uint64 // [engine][fault]: losses attributed to each fault

	fluid         *fluid.Plane // nil ⇒ pure packet mode, zero overhead
	fluidByEngine [][]fluidEnt // per-engine completion schedule (sorted)

	flowsByEngine [][]*flow // flows started, accumulated per owning engine
	delivered     []uint64  // per-engine bits delivered to hosts
	dropped       []uint64  // per-engine packet drops
	retrans       []uint64  // per-engine TCP retransmissions

	hopFree [][]*hopEvent // per-engine hop event pools

	// Distributed execution state (Config.Transport set); see dist.go.
	// All of it is dead weight on the in-process path: dist is false,
	// nothing below is ever touched, and the hot path stays lock-free.
	dist           bool // slice-local build: skip non-hosted materialization
	hostLo, hostHi int  // hosted engine range [lo, hi)
	running        bool // set once at Run; setup-vs-runtime flow identity
	setupFlows     uint64
	runFlowCtr     []uint64 // per-engine runtime flow id counters
	udpSetup       int      // len(udpCbs) at Run: wire-safe registry prefix
	flowMu         sync.RWMutex
	flows          map[uint64]*flow // flow id → local object or replica
	udpCbs         []func(des.Time) // setup-registered UDP callbacks
	tags           map[uint16]TagResolver
}

// New builds the simulation. It validates that the partition never cuts a
// link with latency below the window (the conservative requirement).
func New(cfg Config) (*Sim, error) {
	if cfg.Net == nil || cfg.Routes == nil {
		return nil, fmt.Errorf("netsim: Net and Routes are required")
	}
	if cfg.Engines < 1 {
		cfg.Engines = 1
	}
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = 131072
	}
	part := cfg.Part
	if part == nil {
		part = make([]int32, len(cfg.Net.Nodes))
	}
	if len(part) != len(cfg.Net.Nodes) {
		return nil, fmt.Errorf("netsim: partition covers %d of %d nodes", len(part), len(cfg.Net.Nodes))
	}
	for i := range cfg.Net.Links {
		l := &cfg.Net.Links[i]
		if part[l.A] != part[l.B] && des.Time(l.Latency) < cfg.Window {
			return nil, fmt.Errorf("netsim: link %d (latency %v) is cut but window is %v",
				i, des.Time(l.Latency), cfg.Window)
		}
	}
	s := &Sim{
		cfg:           cfg,
		part:          part,
		tel:           cfg.Telemetry,
		mon:           cfg.NetMon,
		dirs:          make([]linkDir, 2*len(cfg.Net.Links)),
		nodeEvents:    make([]uint64, len(cfg.Net.Nodes)),
		queueNS:       make([]int64, len(cfg.Net.Links)),
		flowsByEngine: make([][]*flow, cfg.Engines),
		delivered:     make([]uint64, cfg.Engines),
		dropped:       make([]uint64, cfg.Engines),
		retrans:       make([]uint64, cfg.Engines),
		hopFree:       make([][]*hopEvent, cfg.Engines),
		tags:          make(map[uint16]TagResolver),
	}
	pcfg := pdes.Config{
		Engines: cfg.Engines, Window: cfg.Window, End: cfg.End,
		Sync: cfg.Sync, EventCost: cfg.EventCost,
		Seed: cfg.Seed, SeriesBuckets: cfg.SeriesBuckets,
		RealTimeFactor: cfg.RealTimeFactor,
		Telemetry:      cfg.Telemetry,
		Invariants:     cfg.Invariants,
	}
	s.hostLo, s.hostHi = 0, cfg.Engines
	if cfg.Transport != nil {
		hosted := cfg.HostedEngines
		if hosted <= 0 {
			hosted = cfg.Engines - cfg.FirstEngine
		}
		s.dist = true
		s.hostLo, s.hostHi = cfg.FirstEngine, cfg.FirstEngine+hosted
		s.runFlowCtr = make([]uint64, cfg.Engines)
		s.flows = make(map[uint64]*flow)
		pcfg.Transport = cfg.Transport
		pcfg.FirstEngine = cfg.FirstEngine
		pcfg.HostedEngines = hosted
		pcfg.Codec = netCodec{s: s}
	}
	ps, err := pdes.New(pcfg)
	if err != nil {
		return nil, err
	}
	s.ps = ps
	for i := range cfg.Net.Links {
		s.queueNS[i] = cfg.QueueBytes * 8 * int64(des.Second) / cfg.Net.Links[i].Bandwidth
	}
	if cfg.Faults != nil {
		s.faults = cfg.Faults
		nf := s.faults.NumFaults()
		s.faultDrops = make([][]uint64, cfg.Engines)
		for e := range s.faultDrops {
			s.faultDrops[e] = make([]uint64, nf)
		}
		// Marker events make faults visible in the kernel event stream and
		// telemetry. All on engine 0, so the event count stays independent
		// of the partition — and in distributed mode only engine 0's host
		// executes them, so each marker fires exactly once globally. A
		// worker not hosting engine 0 skips them outright: they would sit
		// dead in a never-run kernel.
		for i := 0; i < nf; i++ {
			if s.dist && !s.hostedEngine(0) {
				break
			}
			i := i
			at := s.faults.FaultAt(i)
			if at >= cfg.End {
				continue
			}
			s.ps.Engine(0).Schedule(at, func(des.Time) {
				if s.tel != nil {
					s.tel.FaultEvents.Inc()
					s.tel.FaultConverge.Set(s.faults.FaultConvergeNS(i))
					s.tel.FaultRoutesAt.Set(int64(s.faults.FaultRoutesAt(i)))
				}
			})
		}
	}
	if cfg.Fluid != nil {
		s.fluid = cfg.Fluid
		s.scheduleFluidCursors()
	}
	return s, nil
}

// fluidEnt is one fluid-flow completion in an engine's schedule.
type fluidEnt struct {
	at  des.Time
	src model.NodeID
}

// fluidCursor walks one engine's fluid completion schedule as a chain of
// self-rescheduling kernel events: each completion is exactly one
// executed event on the flow source's engine, so fluid traffic is
// visible in TotalEvents and per-node load profiles, the totals are
// identical for every engine count, and the whole chain costs one live
// event per engine at any moment.
type fluidCursor struct {
	s   *Sim
	eng int
	idx int
}

func (c *fluidCursor) OnEvent(now des.Time) {
	ents := c.s.fluidByEngine[c.eng]
	c.s.nodeEvents[ents[c.idx].src]++
	c.idx++
	if c.idx < len(ents) {
		c.s.ps.Engine(c.eng).ScheduleEvent(ents[c.idx].at, c)
	}
}

// scheduleFluidCursors builds each engine's time-sorted fluid completion
// schedule and seeds one cursor chain per hosted engine.
func (s *Sim) scheduleFluidCursors() {
	s.fluidByEngine = make([][]fluidEnt, s.cfg.Engines)
	p := s.fluid
	for i, n := 0, p.NumFlows(); i < n; i++ {
		done := p.Completion(i)
		if done == 0 || done >= s.cfg.End {
			continue
		}
		src := p.Flow(i).Src
		e := s.EngineOf(src)
		s.fluidByEngine[e] = append(s.fluidByEngine[e], fluidEnt{at: done, src: src})
	}
	for e := range s.fluidByEngine {
		ents := s.fluidByEngine[e]
		if len(ents) == 0 || (s.dist && !s.hostedEngine(e)) {
			continue
		}
		// Plane flow order is deterministic, so a stable sort by time gives
		// every worker the identical schedule.
		sort.SliceStable(ents, func(i, j int) bool { return ents[i].at < ents[j].at })
		c := &fluidCursor{s: s, eng: e}
		s.ps.Engine(e).ScheduleEvent(ents[0].at, c)
	}
}

// nextLink resolves forwarding at simulated time now: time-aware through
// the fault plane when one is configured, the static Routes otherwise.
func (s *Sim) nextLink(now des.Time, cur, dst model.NodeID) model.LinkID {
	if s.faults != nil {
		return s.faults.NextLink(now, cur, dst)
	}
	return s.cfg.Routes.NextLink(cur, dst)
}

// EngineOf returns the engine that owns node n.
func (s *Sim) EngineOf(n model.NodeID) int { return int(s.part[n]) }

// hostedEngine reports whether engine e executes on this worker.
func (s *Sim) hostedEngine(e int) bool { return e >= s.hostLo && e < s.hostHi }

// arriveDir is the netmon direction index of the link direction a packet
// ARRIVED over at node: the transmitting end was the far endpoint, so the
// index is 2*via (+1 when the sender was the link's B end). -1 when the
// packet did not cross a link.
func (s *Sim) arriveDir(node model.NodeID, via model.LinkID) int {
	if via < 0 {
		return -1
	}
	d := 2 * int(via)
	if s.cfg.Net.Links[via].A == node {
		d++ // sender was B
	}
	return d
}

// monSpan records one path span of a traced packet. Callers guard on
// s.mon != nil && pkt.trace != 0.
func (s *Sim) monSpan(pkt *Packet, node model.NodeID, link model.LinkID, start, end des.Time, kind netmon.SpanKind) {
	s.mon.Span(netmon.HopSpan{
		Trace: pkt.trace, Src: pkt.Src, Dst: pkt.Dst,
		Node: node, Link: link, Kind: kind,
		Start: start, End: end, Engine: s.EngineOf(node),
		Ack: pkt.Ack, Seq: pkt.Seq,
	})
}

// dropSpan is the terminal path span a traced packet records, by the cause
// it was lost to.
var dropSpan = [...]netmon.SpanKind{
	netmon.DropTail:    netmon.SpanDropTail,
	netmon.DropNoRoute: netmon.SpanDropNoRoute,
	netmon.DropTTL:     netmon.SpanDropTTL,
	netmon.DropFault:   netmon.SpanDropFault,
}

// drop is the one record of a packet lost at node, on node's engine: the
// engine's drop count, the loss attributed to scripted fault fi (-1 for
// every other cause and for an unattributed fault-state drop), the
// telemetry counters, and — with the netmon plane attached — the drop on
// link direction dir (-1 when the packet was not on a link) and the traced
// packet's terminal span.
func (s *Sim) drop(node model.NodeID, pkt *Packet, dir int, link model.LinkID, now des.Time, cause netmon.DropCause, fi int) {
	e := s.EngineOf(node)
	s.dropped[e]++
	if fi >= 0 {
		s.faultDrops[e][fi]++
	}
	if s.tel != nil {
		s.tel.Drops.Inc()
		if cause == netmon.DropFault {
			s.tel.FaultDrops.Inc()
		}
	}
	if s.mon != nil {
		s.mon.LinkDrop(dir, now, cause)
		if pkt.trace != 0 {
			s.monSpan(pkt, node, link, now, now, dropSpan[cause])
		}
	}
}

// ScheduleAt schedules fn to run at simulated time at in the context of
// node n's engine. Use during setup (before Run) or from a handler already
// running on that engine. On a distributed worker, events for nodes owned
// by non-hosted engines are dropped — those kernels never execute here, so
// scheduling into them would only grow arenas another worker duplicates.
func (s *Sim) ScheduleAt(n model.NodeID, at des.Time, fn des.Handler) {
	e := s.EngineOf(n)
	if s.dist && !s.hostedEngine(e) {
		return
	}
	s.ps.Engine(e).Schedule(at, fn)
}

// serialization returns the transmission delay of bits on a link.
func serialization(bits, bandwidth int64) des.Time {
	return des.Time(bits * int64(des.Second) / bandwidth)
}

// fluidMinShare is the minimum fraction of a link's bandwidth foreground
// packets keep when fluid load saturates it: the fluid solver fills links
// to capacity, and a zero effective bandwidth would wedge the packet
// model rather than model extreme (but finite) contention.
const fluidMinShare = 0.02

// transmit sends pkt from node over link lid. Must run on node's engine.
func (s *Sim) transmit(node model.NodeID, lid model.LinkID, pkt Packet) {
	l := &s.cfg.Net.Links[lid]
	dirIdx := 2 * int(lid)
	if l.B == node {
		dirIdx++
	}
	dir := &s.dirs[dirIdx]
	eng := s.ps.Engine(s.EngineOf(node))
	now := eng.Now()
	if s.faults != nil {
		if up, fi := s.faults.LinkUp(now, lid); !up {
			s.drop(node, &pkt, dirIdx, lid, now, netmon.DropFault, fi)
			return
		}
	}
	// Hybrid fidelity: fluid-plane load on this direction shrinks the
	// bandwidth and queue headroom this packet sees. The rate is a pure
	// function of (dir, now) — the cursor only accelerates the segment
	// lookup — so foreground packets experience identical contention on
	// every partition and worker count.
	ser := serialization(pkt.Bits, l.Bandwidth)
	queueNS := s.queueNS[lid]
	if s.fluid != nil {
		if rate := s.fluid.RateAt(dirIdx, now, &dir.fluidSeg); rate > 0 {
			bw := float64(l.Bandwidth)
			eff := bw - rate
			if floor := bw * fluidMinShare; eff < floor {
				eff = floor // foreground keeps a minimum share of the link
			}
			ser = des.Time(math.Ceil(float64(pkt.Bits) * float64(des.Second) / eff))
			queueNS = int64(math.Ceil(float64(s.cfg.QueueBytes*8) * float64(des.Second) / eff))
		}
	}
	start := now
	if dir.busyUntil > start {
		start = dir.busyUntil
	}
	if int64(start-now) > queueNS {
		dir.drops++
		s.drop(node, &pkt, dirIdx, lid, now, netmon.DropTail, -1)
		return // tail drop
	}
	dir.busyUntil = start + ser
	dir.bits += uint64(pkt.Bits)
	if s.tel != nil {
		s.tel.LinkBits.Add(uint64(pkt.Bits))
	}
	arrival := start + ser + des.Time(l.Latency)
	if s.mon != nil {
		s.mon.LinkSend(dirIdx, now, pkt.Bits, int64(start-now))
		if pkt.trace != 0 {
			s.monSpan(&pkt, node, lid, now, arrival, netmon.SpanHop)
		}
	}
	next := l.Other(node)
	if arrival >= s.cfg.End {
		return // beyond horizon; nobody will process it
	}
	dstEng := s.EngineOf(next)
	h := s.newHop(eng.ID())
	h.node = next
	h.link = lid
	h.pkt = pkt
	if dstEng == eng.ID() {
		eng.ScheduleEvent(arrival, h)
	} else {
		eng.ScheduleRemoteEvent(dstEng, arrival, h)
	}
}

// arrive processes a packet landing on node at time now, having crossed
// link via (-1 when locally originated). Must run on node's engine.
func (s *Sim) arrive(now des.Time, node model.NodeID, via model.LinkID, pkt Packet) {
	if s.faults != nil {
		// A link that failed while the packet was in flight takes the
		// packet with it; a failed node neither receives nor forwards.
		if via >= 0 {
			if up, fi := s.faults.LinkUp(now, via); !up {
				s.drop(node, &pkt, s.arriveDir(node, via), via, now, netmon.DropFault, fi)
				return
			}
		}
		if up, fi := s.faults.NodeUp(now, node); !up {
			s.drop(node, &pkt, s.arriveDir(node, via), via, now, netmon.DropFault, fi)
			return
		}
	}
	s.nodeEvents[node]++
	if node == pkt.Dst {
		if s.mon != nil && pkt.trace != 0 {
			s.monSpan(&pkt, node, -1, now, now, netmon.SpanDeliver)
		}
		s.deliver(node, pkt)
		return
	}
	pkt.ttl--
	if pkt.ttl <= 0 {
		s.drop(node, &pkt, s.arriveDir(node, via), via, now, netmon.DropTTL, -1)
		return // TTL exhausted (forwarding loop protection)
	}
	lid := s.nextLink(now, node, pkt.Dst)
	if lid < 0 {
		s.drop(node, &pkt, s.arriveDir(node, via), via, now, netmon.DropNoRoute, -1)
		return // no route
	}
	s.transmit(node, lid, pkt)
}

// inject starts a packet at its source node (host or router) at time now.
// Must run on the source's engine.
func (s *Sim) inject(now des.Time, pkt Packet) {
	if s.faults != nil {
		if up, fi := s.faults.NodeUp(now, pkt.Src); !up {
			s.drop(pkt.Src, &pkt, -1, -1, now, netmon.DropFault, fi) // not sampled yet: no span
			return
		}
	}
	pkt.ttl = DefaultTTL
	if s.mon != nil {
		pkt.trace = s.mon.SampleTrace(pkt.Src, pkt.Dst, pkt.Seq, pkt.Ack, pkt.Bits, now)
	}
	s.nodeEvents[pkt.Src]++
	if pkt.Src == pkt.Dst {
		if s.mon != nil && pkt.trace != 0 {
			s.monSpan(&pkt, pkt.Dst, -1, now, now, netmon.SpanDeliver)
		}
		s.deliver(pkt.Dst, pkt)
		return
	}
	lid := s.nextLink(now, pkt.Src, pkt.Dst)
	if lid < 0 {
		s.drop(pkt.Src, &pkt, -1, -1, now, netmon.DropNoRoute, -1)
		return
	}
	s.transmit(pkt.Src, lid, pkt)
}

// SendUDP schedules a one-shot datagram of the given size from src at time
// at. onDeliver (optional) runs on dst's engine when it lands. In
// distributed runs the callback crosses workers by registry index, which
// requires every worker's setup to register it identically:
// call SendUDP with a callback during setup, not from runtime handlers.
func (s *Sim) SendUDP(at des.Time, src, dst model.NodeID, bytes int64, onDeliver func(at des.Time)) {
	var udpID int32
	if s.dist && onDeliver != nil {
		s.flowMu.Lock()
		s.udpCbs = append(s.udpCbs, onDeliver)
		udpID = int32(len(s.udpCbs))
		s.flowMu.Unlock()
	}
	s.ScheduleAt(src, at, func(now des.Time) {
		s.inject(now, Packet{Src: src, Dst: dst, Bits: bytes * 8, deliverCb: onDeliver, udpID: udpID})
	})
}

// Result summarizes a completed run.
type Result struct {
	pdes.Stats
	// NodeEvents[n] is the number of kernel events attributed to node n —
	// the per-router load profile PROF feeds back into the partitioner.
	NodeEvents []uint64
	// LinkBits[l] is the traffic carried by link l in bits (both
	// directions).
	LinkBits []uint64
	// Dropped is the number of packets dropped (queue overflow or no
	// route).
	Dropped uint64
	// Retransmissions counts TCP segments sent more than once.
	Retransmissions uint64
	// LinkDrops[l] is the number of packets tail-dropped at link l (both
	// directions).
	LinkDrops []uint64
	// DeliveredBits is payload delivered to destination hosts.
	DeliveredBits uint64
	// FlowsStarted and FlowsCompleted count TCP transfers.
	FlowsStarted, FlowsCompleted int
	// LastCompletion is the time the final completed flow finished (the
	// paper's application simulation time at app granularity).
	LastCompletion des.Time
	// FaultDrops[i] is the number of packets lost to fault event i (nil
	// when the run had no fault plane). Included in Dropped.
	FaultDrops []uint64
	// Fluid* summarize the flow-level half of a hybrid run (zero/nil
	// without a fluid plane). Like the packet counters, a distributed
	// worker reports only flows whose source engine it hosts (and link
	// volume only for hosted transmitters), so per-worker partials merge
	// by sum — except FluidDone (merge take-nonzero per index) and
	// FluidLastCompletion (merge max).
	FluidStarted, FluidCompleted int
	// FluidDeliveredBits is payload delivered by fluid flows, including
	// the pro-rated partials of flows still active at the horizon.
	FluidDeliveredBits  uint64
	FluidLastCompletion des.Time
	// FluidDone[i] is fluid flow i's completion time (0 = not completed
	// or not hosted here).
	FluidDone []des.Time
	// FluidLinkBits[l] is the wire volume the fluid plane carried on link
	// l, both directions.
	FluidLinkBits []uint64
}

// Run executes the simulation and gathers results. In distributed mode the
// Result is this worker's PARTIAL view: counters cover only state written
// by the hosted engines (everything else stays zero), and per-worker
// partials merge by sum — except flow completion times, which merge by
// take-nonzero/max (see simcheck.MergeObservations).
func (s *Sim) Run() Result {
	s.running = true
	s.udpSetup = len(s.udpCbs)
	stats := s.ps.Run()
	if s.mon != nil {
		s.mon.Close() // end live flow-completion streams
	}
	res := Result{
		Stats:      stats,
		NodeEvents: s.nodeEvents,
		LinkBits:   make([]uint64, len(s.cfg.Net.Links)),
		LinkDrops:  make([]uint64, len(s.cfg.Net.Links)),
	}
	for i := range s.cfg.Net.Links {
		res.LinkBits[i] = s.dirs[2*i].bits + s.dirs[2*i+1].bits
		res.LinkDrops[i] = s.dirs[2*i].drops + s.dirs[2*i+1].drops
	}
	for e := 0; e < s.cfg.Engines; e++ {
		res.Dropped += s.dropped[e]
		res.DeliveredBits += s.delivered[e]
		res.Retransmissions += s.retrans[e]
	}
	if s.faults != nil {
		res.FaultDrops = make([]uint64, s.faults.NumFaults())
		for e := 0; e < s.cfg.Engines; e++ {
			for i, d := range s.faultDrops[e] {
				res.FaultDrops[i] += d
			}
		}
	}
	if s.fluid != nil {
		s.fluidResult(&res)
	}
	// Replicated setup starts every flow on every worker; only the engine
	// owning a flow's source runs its sender, so a distributed worker
	// counts the hosted ranges and the merge sums to the global totals.
	for e, flows := range s.flowsByEngine {
		if e < s.hostLo || e >= s.hostHi {
			continue
		}
		for _, f := range flows {
			res.FlowsStarted++
			if f.done {
				res.FlowsCompleted++
				if f.completedAt > res.LastCompletion {
					res.LastCompletion = f.completedAt
				}
			}
		}
	}
	return res
}

// fluidResult fills Result's fluid counters from the plane, applying the
// hosted-engine filter so distributed partials merge like the packet
// counters do. Float→integer conversions happen at fixed per-flow and
// per-direction granularity BEFORE any summing, so every worker derives
// bit-identical integers from its (identical) plane.
func (s *Sim) fluidResult(res *Result) {
	p := s.fluid
	n := p.NumFlows()
	res.FluidDone = make([]des.Time, n)
	for i := 0; i < n; i++ {
		f := p.Flow(i)
		if !s.hostedEngine(s.EngineOf(f.Src)) {
			continue
		}
		if p.Started(i) {
			res.FluidStarted++
		}
		res.FluidDeliveredBits += uint64(p.PayloadBits(i))
		done := p.Completion(i)
		res.FluidDone[i] = done
		if done != 0 {
			res.FluidCompleted++
			if done > res.FluidLastCompletion {
				res.FluidLastCompletion = done
			}
			if s.mon != nil {
				s.mon.FluidFCT(int64(done - f.Start))
			}
		}
	}
	res.FluidLinkBits = make([]uint64, len(s.cfg.Net.Links))
	if s.mon != nil {
		s.mon.EnsureFluid()
	}
	for d := 0; d < 2*len(s.cfg.Net.Links); d++ {
		l := &s.cfg.Net.Links[d/2]
		tx := l.A
		if d&1 == 1 {
			tx = l.B
		}
		if !s.hostedEngine(s.EngineOf(tx)) {
			continue
		}
		res.FluidLinkBits[d/2] += uint64(p.DirBits(d))
		if s.mon != nil {
			segs := p.DirSegments(d)
			for i, seg := range segs {
				to := s.cfg.End
				if i+1 < len(segs) {
					to = segs[i+1].At
				}
				s.mon.AddFluidBits(d, seg.At, to, seg.Rate)
			}
		}
	}
}

// Engine exposes engine i (for tests and the online agent).
func (s *Sim) Engine(i int) *pdes.Engine { return s.ps.Engine(i) }

// Stop requests cooperative cancellation of a running simulation: the
// engines exit at the next barrier and Run returns partial results with
// Stats.Stopped set. Safe from any goroutine.
func (s *Sim) Stop() { s.ps.Stop() }

// Config returns the simulation's configuration.
func (s *Sim) Config() Config { return s.cfg }
