package netsim

import (
	"reflect"
	"testing"
	"unsafe"

	"massf/internal/des"
	"massf/internal/faults"
	"massf/internal/model"
	"massf/internal/netmon"
	"massf/internal/routing/interdomain"
)

// Every field an engine writes sits a full cache line inside its element,
// and elements are whole lines, so two engines' state never shares a line
// however the slice is aligned.
func TestEngineStateLayout(t *testing.T) {
	var st engineState
	size := unsafe.Sizeof(st)
	lo := unsafe.Offsetof(st.engineData)
	hi := lo + unsafe.Sizeof(st.engineData)
	if size%cacheLine != 0 {
		t.Errorf("sizeof(engineState) = %d, not a multiple of %d", size, cacheLine)
	}
	if lo < cacheLine || size-hi < cacheLine {
		t.Errorf("engine fields span [%d, %d) of a %d-byte element, want ≥ %d bytes clear at both ends", lo, hi, size, cacheLine)
	}
}

// A Packet fills one cache line and a hop event adds only its Sim, node
// and link to it: the forwarding loop touches one line of packet per hop.
func TestPacketFitsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != cacheLine {
		t.Errorf("sizeof(Packet) = %d, want %d", got, cacheLine)
	}
	if got := unsafe.Sizeof(hopEvent{}); got != cacheLine+16 {
		t.Errorf("sizeof(hopEvent) = %d, want %d", got, cacheLine+16)
	}
}

// One scenario with every per-engine counter in play — tail drops,
// retransmissions, losses to a scripted link fault, and flows started by
// handlers at run time — gives the same totals on one, two and four
// engines: folding the engines' state into Result loses none of them.
func TestCountersFoldAcrossEngines(t *testing.T) {
	type totals struct {
		NodeEvents                       []uint64
		Dropped, Delivered, Retrans      uint64
		FaultDrops                       []uint64
		FlowsStarted, FlowsCompleted     int
		Responses, Requests, Probes      int
		TotalEvents, LinkDrops, LinkBits uint64
	}
	run := func(engines int) totals {
		net, h0, h1, l01 := faultSquare(t)
		// Nodes: r0..r3 = 0..3, h0 = 4, h1 = 5. Every cut link is ≥ 10 µs.
		part := map[int][]int32{
			1: nil,
			2: {0, 0, 1, 1, 0, 1},
			4: {0, 1, 2, 3, 0, 2},
		}[engines]
		routes := interdomain.New(net)
		plane, err := faults.NewPlane(net, routes, &faults.Script{Events: []faults.Event{
			{At: 100 * des.Millisecond, Kind: faults.LinkDown, Link: l01, ConvergeNS: 10_000_000},
			{At: 300 * des.Millisecond, Kind: faults.LinkUp, Link: l01, ConvergeNS: 10_000_000},
		}})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{
			Net: net, Routes: routes, Part: part, Engines: engines,
			Window: 10 * des.Microsecond, End: 600 * des.Millisecond,
			Faults: plane, QueueBytes: 6000,
		})
		if err != nil {
			t.Fatal(err)
		}
		var tot totals
		// Each request's delivery starts a response on h1's engine, and
		// each response's delivery one more request on h0's; each counter
		// is written by one engine only.
		var request func(at des.Time)
		request = func(at des.Time) {
			s.StartFlowRecv(at, h0, h1, 300_000, nil, func(at des.Time) {
				tot.Responses++
				s.StartFlowRecv(at, h1, h0, 200_000, nil, func(at des.Time) {
					tot.Requests++
					request(at)
				})
			})
		}
		request(0)
		for i := 0; i < 200; i++ {
			s.SendUDP(des.Time(i)*2*des.Millisecond, h0, h1, 100, func(des.Time) { tot.Probes++ })
		}
		res := s.Run()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		tot.NodeEvents, tot.FaultDrops = res.NodeEvents, res.FaultDrops
		tot.Dropped, tot.Delivered, tot.Retrans = res.Dropped, res.DeliveredBits, res.Retransmissions
		tot.FlowsStarted, tot.FlowsCompleted = res.FlowsStarted, res.FlowsCompleted
		tot.TotalEvents = res.TotalEvents
		for l := range res.LinkDrops {
			tot.LinkDrops += res.LinkDrops[l]
			tot.LinkBits += res.LinkBits[l]
		}
		if engines > 1 && res.RemoteEvents == 0 {
			t.Fatalf("k=%d exchanged no remote events", engines)
		}
		return tot
	}
	ref := run(1)
	switch {
	case ref.LinkDrops == 0 || ref.Retrans == 0:
		t.Fatalf("no tail drops (%d) or retransmissions (%d)", ref.LinkDrops, ref.Retrans)
	case ref.FaultDrops[0] == 0:
		t.Fatal("no loss attributed to the scripted link fault")
	case ref.Responses+ref.Requests < 4:
		t.Fatalf("%d flows started at run time", ref.Responses+ref.Requests)
	}
	for _, k := range []int{2, 4} {
		if got := run(k); !reflect.DeepEqual(got, ref) {
			t.Errorf("k=%d totals differ from k=1:\n got %+v\nwant %+v", k, got, ref)
		}
	}
}

// endsPlane is a fault plane with two broken routes on top: packets for
// loop bounce between r0 and r1 over l01 until their TTL runs out, and
// packets for dead find no route at r0.
type endsPlane struct {
	*faults.Plane
	l01        model.LinkID
	loop, dead model.NodeID
}

func (p endsPlane) NextLink(now des.Time, cur, dst model.NodeID) model.LinkID {
	switch {
	case dst == p.loop && cur <= 1: // r0 or r1
		return p.l01
	case dst == p.dead && cur == 0: // r0
		return -1
	}
	return p.Plane.NextLink(now, cur, dst)
}

// A hop event rides with its packet and goes back to a pool exactly once,
// wherever the packet ends. One scenario reaches every end — delivery of
// TCP data, ACKs and UDP; tail drops; TTL kills; no-route drops; losses to
// a scripted link fault and a node fault; arrivals past End — on one, two
// and four engines. A hop freed twice would sit in the pools twice, and a
// pooled hop must not keep its packet's flow or callback alive.
func TestHopEventsEndInOnePool(t *testing.T) {
	type totals struct{ Dropped, DeliveredBits, TotalEvents uint64 }
	var ref totals
	for _, k := range []int{1, 2, 4} {
		net, h0, h1, l01 := faultSquare(t)
		// Nodes: r0..r3 = 0..3, h0 = 4, h1 = 5. Every cut link is ≥ 10 µs.
		part := map[int][]int32{1: nil, 2: {0, 0, 1, 1, 0, 1}, 4: {0, 1, 2, 3, 0, 2}}[k]
		routes := interdomain.New(net)
		script := &faults.Script{Events: []faults.Event{
			{At: 100 * des.Millisecond, Kind: faults.LinkDown, Link: l01, ConvergeNS: 10_000_000},
			{At: 150 * des.Millisecond, Kind: faults.NodeDown, Node: 3, ConvergeNS: 10_000_000},
			{At: 200 * des.Millisecond, Kind: faults.NodeUp, Node: 3, ConvergeNS: 10_000_000},
			{At: 300 * des.Millisecond, Kind: faults.LinkUp, Link: l01, ConvergeNS: 10_000_000},
		}}
		plane, err := faults.NewPlane(net, routes, script)
		if err != nil {
			t.Fatal(err)
		}
		end := 600 * des.Millisecond
		mon := netmon.New(netmon.Options{Links: len(net.Links), Horizon: end})
		s, err := New(Config{
			Net: net, Routes: routes, Part: part, Engines: k,
			Window: 10 * des.Microsecond, End: end,
			Faults: endsPlane{Plane: plane, l01: l01, loop: 3, dead: 1}, QueueBytes: 6000, NetMon: mon,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.StartFlowRecv(0, h0, h1, 400_000, nil, nil)
		s.StartFlowRecv(50*des.Millisecond, h1, h0, 300_000, nil, nil)
		s.StartFlowRecv(400*des.Millisecond, h0, h1, 50_000_000, nil, nil) // still sending at End
		// The three probe streams start a few µs apart: two packets that
		// land on one node at the same instant, one of them from another
		// engine, run in an order that depends on the partition (see
		// ROADMAP), and this test is about where hops end, not about that.
		probes := 0
		for i := 0; i < 290; i++ {
			at := des.Time(i) * 2 * des.Millisecond
			s.SendUDP(at, h1, h0, 100, func(des.Time) { probes++ })
			s.SendUDP(at+3_001, h0, 3, 100, nil) // loops until its TTL runs out
			s.SendUDP(at+7_019, h0, 1, 100, nil) // no route at r0
		}
		res := s.Run()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		sum := mon.Summary()
		switch {
		case probes == 0 || res.FlowsCompleted != 2 || res.FlowsStarted != 3:
			t.Fatalf("k=%d: %d UDP probes delivered, %d of %d flows completed; want some, 2 of 3", k, probes, res.FlowsCompleted, res.FlowsStarted)
		case sum.DropsTail == 0 || sum.DropsTTL == 0 || sum.DropsNoRoute == 0:
			t.Fatalf("k=%d: an end went unreached: %d tail, %d TTL, %d no-route drops", k, sum.DropsTail, sum.DropsTTL, sum.DropsNoRoute)
		case res.FaultDrops[0] == 0 || res.FaultDrops[1] == 0:
			t.Fatalf("k=%d: fault losses %v, want some to the link and the node outage", k, res.FaultDrops)
		}
		pooled := map[*hopEvent]int{}
		for e := range s.eng {
			for _, h := range s.eng[e].hopFree {
				if pooled[h]++; pooled[h] == 2 {
					t.Errorf("k=%d: hop %p freed twice", k, h)
				}
				if !reflect.ValueOf(h.pkt).IsZero() {
					t.Errorf("k=%d: pooled hop holds packet %+v", k, h.pkt)
				}
			}
		}
		got := totals{res.Dropped, res.DeliveredBits, res.TotalEvents}
		if k == 1 {
			ref = got
		} else if got != ref {
			t.Errorf("k=%d totals %+v, want k=1's %+v", k, got, ref)
		}
	}
}
