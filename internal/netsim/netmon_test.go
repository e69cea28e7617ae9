package netsim

import (
	"reflect"
	"testing"

	"massf/internal/cluster"
	"massf/internal/des"
	"massf/internal/fluid"
	"massf/internal/model"
	"massf/internal/netmon"
	"massf/internal/routing/interdomain"
	"massf/internal/telemetry"
)

// monSim is sim() with a netmon plane and a queue-size override attached.
func monSim(t *testing.T, net *model.Network, part []int32, engines int, window, end des.Time, mon *netmon.Mon, queueBytes int64) *Sim {
	t.Helper()
	s, err := New(Config{
		Net: net, Routes: interdomain.New(net), Part: part, Engines: engines,
		Window: window, End: end, Sync: cluster.Fixed{CostNS: 1000},
		NetMon: mon, QueueBytes: queueBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// observables strips a Result down to the partition-independent fields the
// simcheck oracle also compares.
type observables struct {
	TotalEvents     uint64
	NodeEvents      []uint64
	LinkBits        []uint64
	LinkDrops       []uint64
	Dropped         uint64
	Retransmissions uint64
	DeliveredBits   uint64
	FlowsStarted    int
	FlowsCompleted  int
	LastCompletion  des.Time
}

func observe(r Result) observables {
	return observables{
		TotalEvents: r.TotalEvents, NodeEvents: r.NodeEvents,
		LinkBits: r.LinkBits, LinkDrops: r.LinkDrops,
		Dropped: r.Dropped, Retransmissions: r.Retransmissions,
		DeliveredBits: r.DeliveredBits,
		FlowsStarted:  r.FlowsStarted, FlowsCompleted: r.FlowsCompleted,
		LastCompletion: r.LastCompletion,
	}
}

// monScenario loads a chain with enough TCP and UDP traffic to retransmit
// under a tight queue, returns the run's Result.
func monScenario(t *testing.T, engines int, mon *netmon.Mon) (Result, *model.Network) {
	t.Helper()
	net, a, b := chainNet(3, des.Millisecond, 20_000_000)
	part := make([]int32, len(net.Nodes))
	if engines > 1 {
		// Split the chain in the middle: a,r0 on engine 0, rest on 1.
		for n := 2; n < len(net.Nodes); n++ {
			part[n] = 1
		}
	}
	s := monSim(t, net, part, engines, des.Millisecond, 2*des.Second, mon, 4000)
	s.StartFlowRecv(0, a, b, 400_000, nil, nil)
	s.StartFlowRecv(des.Millisecond, b, a, 100_000, nil, nil)
	s.SendUDP(10*des.Millisecond, a, b, 2000, nil)
	return s.Run(), net
}

// TestNetMonObserverNeutrality proves attaching a Mon does not perturb the
// simulation: instrumented and uninstrumented runs must agree on every
// observable, sequentially and partitioned — and the instrumented
// partitioned run must record the same series and spans as the sequential
// one (sampling is partition-independent).
func TestNetMonObserverNeutrality(t *testing.T) {
	newMon := func() *netmon.Mon {
		return netmon.New(netmon.Options{Links: 5, Horizon: 2 * des.Second, SampleEvery: 3})
	}
	plain1, _ := monScenario(t, 1, nil)
	mon1 := newMon()
	inst1, _ := monScenario(t, 1, mon1)
	if !reflect.DeepEqual(observe(plain1), observe(inst1)) {
		t.Fatalf("sequential observables diverge:\nplain %+v\ninst  %+v", observe(plain1), observe(inst1))
	}
	plain2, _ := monScenario(t, 2, nil)
	mon2 := newMon()
	inst2, _ := monScenario(t, 2, mon2)
	if !reflect.DeepEqual(observe(plain2), observe(inst2)) {
		t.Fatalf("partitioned observables diverge:\nplain %+v\ninst  %+v", observe(plain2), observe(inst2))
	}
	if !reflect.DeepEqual(observe(plain1), observe(plain2)) {
		t.Fatalf("N=1 vs N=2 diverge (scenario bug): %+v vs %+v", observe(plain1), observe(plain2))
	}

	if mon1.Summary().FlowsCompleted != 2 || mon2.Summary().FlowsCompleted != 2 {
		t.Fatalf("instrumentation recorded nothing: %+v / %+v", mon1.Summary(), mon2.Summary())
	}
	// The sampled span sets must agree across partitionings, up to the
	// engine that recorded them.
	s1, s2 := mon1.Spans(), mon2.Spans()
	for i := range s1 {
		s1[i].Engine = 0
	}
	for i := range s2 {
		s2[i].Engine = 0
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("sampled spans depend on the partition: %d vs %d spans", len(s1), len(s2))
	}
	if len(s1) == 0 {
		t.Fatal("stride-3 sampling recorded no spans")
	}
	// The tight queue must have produced attributed tail drops whose
	// split matches the aggregate drop counters.
	sum := mon1.Summary()
	if sum.DropsTail == 0 {
		t.Error("no tail drops recorded under a 4 KB queue")
	}
	if got := sum.DropsTail + sum.DropsNoRoute + sum.DropsTTL + sum.DropsFault; got != plain1.Dropped {
		t.Errorf("drop split %d != Result.Dropped %d", got, plain1.Dropped)
	}
}

// TestNetMonPathValidation traces every packet of a single UDP send and
// checks the recorded hop chain is exactly the route in force.
func TestNetMonPathValidation(t *testing.T) {
	net, a, b := chainNet(3, des.Millisecond, model.Bps1G)
	mon := netmon.New(netmon.Options{Links: len(net.Links), Horizon: des.Second, SampleEvery: 1})
	s := monSim(t, net, nil, 1, des.Millisecond, des.Second, mon, 0)
	s.SendUDP(0, a, b, 1500, nil)
	res := s.Run()
	if res.DeliveredBits != 1500*8 {
		t.Fatalf("datagram not delivered: %+v", res)
	}
	spans := mon.Spans()
	if len(spans) != len(net.Links)+1 {
		t.Fatalf("want %d spans (hops + deliver), got %+v", len(net.Links)+1, spans)
	}
	cur := a
	for i, sp := range spans[:len(spans)-1] {
		want := s.cfg.Routes.NextLink(cur, b)
		if sp.Kind != netmon.SpanHop || sp.Node != cur || sp.Link != want {
			t.Fatalf("hop %d: got %+v, want node %d link %d", i, sp, cur, want)
		}
		if sp.End <= sp.Start {
			t.Fatalf("hop %d: non-positive span %+v", i, sp)
		}
		cur = net.Links[want].Other(cur)
	}
	last := spans[len(spans)-1]
	if last.Kind != netmon.SpanDeliver || last.Node != b || cur != b {
		t.Fatalf("path does not terminate at the destination: %+v (cur %d)", last, cur)
	}

	// Flow records for a TCP transfer over the same chain.
	mon2 := netmon.New(netmon.Options{Links: len(net.Links), Horizon: des.Second})
	s2 := monSim(t, net, nil, 1, des.Millisecond, des.Second, mon2, 0)
	s2.StartFlowRecv(0, a, b, 50_000, nil, nil)
	s2.Run()
	rep := mon2.FlowReport(true)
	if rep.Recorded != 1 || rep.FCT.Count != 1 {
		t.Fatalf("flow report: %+v", rep)
	}
	f := rep.Flows[0]
	if f.CompletedNS == 0 || f.FirstByteNS == 0 || f.FirstByteNS > f.CompletedNS {
		t.Errorf("flow times: %+v", f)
	}
	if f.GoodputBps <= 0 || len(f.Samples) == 0 {
		t.Errorf("flow trajectory: %+v", f)
	}
}

// TestNetCodecTracePropagation pins the wire layout: the trace id crosses
// workers exactly when sampled, and untraced packets pay no extra bytes.
func TestNetCodecTracePropagation(t *testing.T) {
	s := newDistSim(t)
	c := netCodec{s: s}
	for _, trace := range []uint64{0, 0xdeadbeefcafe} {
		h := &hopEvent{s: s, node: 3, link: 2, pkt: Packet{
			Src: 1, Dst: 3, Bits: 12000, Seq: 7, ttl: 60, trace: trace,
		}}
		kind, payload, err := c.Encode(h)
		if err != nil {
			t.Fatal(err)
		}
		eh, err := c.Decode(0, kind, payload)
		if err != nil {
			t.Fatal(err)
		}
		got := eh.(*hopEvent)
		if got.pkt.trace != trace || got.pkt.Seq != 7 || got.node != 3 || got.link != 2 {
			t.Fatalf("round trip lost data: %+v", got.pkt)
		}
	}
	// Untraced payload is 8 bytes (the U64 id) shorter than traced.
	_, plain, _ := c.Encode(&hopEvent{s: s, pkt: Packet{Src: 1, Dst: 2, Bits: 8}})
	_, traced, _ := c.Encode(&hopEvent{s: s, pkt: Packet{Src: 1, Dst: 2, Bits: 8, trace: 5}})
	if len(traced)-len(plain) != 8 {
		t.Fatalf("trace id costs %d wire bytes, want 8", len(traced)-len(plain))
	}
}

// TestNetMonLinkReportDuringFluidFold: a hybrid run folds its fluid plane
// into the Mon after the engines stop but before Run returns, while a
// daemon still serves the run's link report. The report is polled from
// the moment the window stream ends — the engines have stopped, the fold
// is next — until Run has returned, with nothing ordering the polls
// against the fold, so under -race a report that races the fold fails
// here whatever the timing. Once the run is over, the Mon's summary counts
// every fluid completion the result does, and the link report carries the
// fold's volume.
func TestNetMonLinkReportDuringFluidFold(t *testing.T) {
	const end = 2 * des.Second
	net, a, b := chainNet(3, des.Millisecond, 20_000_000)
	routes := interdomain.New(net)
	plane, err := fluid.Build(fluid.Config{Net: net, Routes: routes, End: end}, []fluid.Flow{
		{Src: a, Dst: b, Bytes: 1_000_000},
		{Src: b, Dst: a, Bytes: 500_000, Start: 10 * des.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	part := make([]int32, len(net.Nodes))
	for n := 2; n < len(net.Nodes); n++ {
		part[n] = 1
	}
	mon := netmon.New(netmon.Options{Links: len(net.Links), Horizon: end})
	tel := telemetry.New(2, 0)
	s, err := New(Config{
		Net: net, Routes: routes, Part: part, Engines: 2,
		Window: des.Millisecond, End: end, Sync: cluster.Fixed{CostNS: 1000},
		Fluid: plane, NetMon: mon, Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, windows, cancel := tel.Windows.Subscribe(16)
	defer cancel()
	done, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for range windows {
		}
		for {
			mon.LinkReport(0, true)
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	res := s.Run()
	close(done)
	<-polled
	if res.FluidCompleted != 2 {
		t.Fatalf("%d fluid flows completed, want 2", res.FluidCompleted)
	}
	if got := mon.Summary().FluidFlowsCompleted; got != uint64(res.FluidCompleted) {
		t.Errorf("netmon summary counts %d fluid completions, the result %d", got, res.FluidCompleted)
	}
	var fluidBits uint64
	for _, l := range mon.LinkReport(0, false).Links {
		fluidBits += l.FluidBits
	}
	if fluidBits == 0 {
		t.Error("the link report carries no fluid volume after the fold")
	}
}
