package netsim

import (
	"reflect"
	"testing"
	"unsafe"

	"massf/internal/des"
	"massf/internal/faults"
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
			Window: 10 * des.Microsecond, End: 600 * des.Millisecond, Seed: 1,
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
