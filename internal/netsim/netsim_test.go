package netsim

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"massf/internal/cluster"
	"massf/internal/des"
	"massf/internal/model"
	"massf/internal/routing/interdomain"
)

// chainNet builds host A — r0 — r1 — … — host B with the given backbone
// latency per hop and bandwidth.
func chainNet(routers int, hopLatency des.Time, bw int64) (*model.Network, model.NodeID, model.NodeID) {
	net := &model.Network{}
	prev := net.AddNode(model.Host, 0, 0, 0)
	hostA := prev
	for i := 0; i < routers; i++ {
		r := net.AddNode(model.Router, 0, float64(i+1), 0)
		lat := int64(hopLatency)
		if prev == hostA {
			lat = 10_000 // access link 10µs
		}
		net.AddLink(prev, r, lat, bw)
		prev = r
	}
	hostB := net.AddNode(model.Host, 0, 99, 0)
	net.AddLink(prev, hostB, 10_000, bw)
	net.ASes = []model.AS{{ID: 0, DefaultBorder: -1}}
	return net, hostA, hostB
}

func sim(t *testing.T, net *model.Network, part []int32, engines int, window, end des.Time) *Sim {
	t.Helper()
	s, err := New(Config{
		Net: net, Routes: interdomain.New(net), Part: part, Engines: engines,
		Window: window, End: end, Sync: cluster.Fixed{CostNS: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	net, _, _ := chainNet(2, des.Millisecond, model.Bps1G)
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	// Partition cutting a link with latency below the window must fail.
	part := make([]int32, len(net.Nodes))
	part[0] = 1 // cuts the 10µs access link
	_, err := New(Config{
		Net: net, Routes: interdomain.New(net), Part: part, Engines: 2,
		Window: des.Millisecond, End: des.Second,
	})
	if err == nil {
		t.Error("window larger than cut latency accepted")
	}
	// A node on an engine the run does not have must fail.
	part[0] = 2
	_, err = New(Config{
		Net: net, Routes: interdomain.New(net), Part: part, Engines: 2,
		Window: 10 * des.Microsecond, End: des.Second,
	})
	if err == nil {
		t.Error("node on engine 2 of 2 accepted")
	}
}

func TestUDPDelivery(t *testing.T) {
	net, a, b := chainNet(2, des.Millisecond, model.Bps1G)
	s := sim(t, net, nil, 1, des.Millisecond, des.Second)
	var deliveredAt des.Time
	s.SendUDP(0, a, b, 1000, func(at des.Time) { deliveredAt = at })
	res := s.Run()
	if deliveredAt == 0 {
		t.Fatal("UDP packet not delivered")
	}
	// Path: 10µs + 1ms + 10µs propagation + 4×8µs serialization ≈ 1.052ms.
	want := des.Time(1_020_000 + 4*8000)
	tol := des.Time(10_000)
	if deliveredAt < want-tol || deliveredAt > want+tol {
		t.Errorf("delivered at %v, want ≈%v", deliveredAt, want)
	}
	if res.DeliveredBits != 8000 {
		t.Errorf("DeliveredBits = %d, want 8000", res.DeliveredBits)
	}
	if res.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0", res.Dropped)
	}
}

func TestUDPNoRouteDropped(t *testing.T) {
	net, a, _ := chainNet(1, des.Millisecond, model.Bps1G)
	iso := net.AddNode(model.Host, 0, 50, 50) // unreachable island
	s := sim(t, net, nil, 1, des.Millisecond, des.Second)
	got := false
	s.SendUDP(0, a, iso, 100, func(des.Time) { got = true })
	res := s.Run()
	if got {
		t.Error("packet delivered to unreachable host")
	}
	if res.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", res.Dropped)
	}
}

func TestTCPFlowCompletes(t *testing.T) {
	net, a, b := chainNet(3, des.Millisecond, model.Bps1G)
	s := sim(t, net, nil, 1, des.Millisecond, 10*des.Second)
	var doneAt des.Time
	s.StartFlowRecv(0, a, b, 100_000, func(at des.Time) { doneAt = at }, nil)
	res := s.Run()
	if res.FlowsCompleted != 1 {
		t.Fatalf("FlowsCompleted = %d, want 1 (dropped=%d)", res.FlowsCompleted, res.Dropped)
	}
	// ~7ms RTT, 69 segments: slow start finishes this in well under a
	// second on a 1 Gbps path.
	if doneAt > des.Second {
		t.Errorf("100 KB took %v, want < 1s", doneAt)
	}
	if doneAt < 7*des.Millisecond {
		t.Errorf("100 KB finished in %v, faster than one RTT", doneAt)
	}
	if res.LastCompletion != doneAt {
		t.Errorf("LastCompletion = %v, want %v", res.LastCompletion, doneAt)
	}
}

func TestTCPSurvivesCongestionLoss(t *testing.T) {
	// Two flows share a slow 10 Mbps bottleneck with a small buffer:
	// drops are guaranteed, both flows must still finish via retransmit.
	net, a, b := chainNet(2, des.Millisecond, 10_000_000)
	c := net.AddNode(model.Host, 0, 0, 1)
	net.AddLink(c, 1, 10_000, 10_000_000) // second host on first router
	s, err := New(Config{
		Net: net, Routes: interdomain.New(net), Engines: 1,
		Window: des.Millisecond, End: 60 * des.Second,
		Sync: cluster.Fixed{CostNS: 1}, QueueBytes: 8000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.StartFlowRecv(0, a, b, 300_000, nil, nil)
	s.StartFlowRecv(0, c, b, 300_000, nil, nil)
	res := s.Run()
	if res.Dropped == 0 {
		t.Error("no drops despite tiny bottleneck buffer; congestion model broken")
	}
	if res.FlowsCompleted != 2 {
		t.Errorf("FlowsCompleted = %d, want 2 despite loss", res.FlowsCompleted)
	}
}

func TestTCPThroughputBoundedByBandwidth(t *testing.T) {
	// 1 MB over a 10 Mbps link takes ≥ 0.8 s (payload serialization alone).
	net, a, b := chainNet(1, 100*des.Microsecond, 10_000_000)
	s := sim(t, net, nil, 1, 100*des.Microsecond, 30*des.Second)
	var doneAt des.Time
	s.StartFlowRecv(0, a, b, 1_000_000, func(at des.Time) { doneAt = at }, nil)
	res := s.Run()
	if res.FlowsCompleted != 1 {
		t.Fatalf("flow incomplete (dropped=%d)", res.Dropped)
	}
	if doneAt < 800*des.Millisecond {
		t.Errorf("1 MB at 10 Mbps finished in %v — faster than the wire", doneAt)
	}
}

func TestPartitionedEqualsSequential(t *testing.T) {
	// The same workload on 1 engine and on 3 engines (partitioned at the
	// 1 ms backbone links) must complete the same flows with (near)
	// identical timing: the conservative engine does not change physics.
	build := func(engines int, part []int32) Result {
		net, a, b := chainNet(4, des.Millisecond, model.Bps1G)
		s := sim(t, net, part, engines, des.Millisecond, 10*des.Second)
		s.StartFlowRecv(0, a, b, 200_000, nil, nil)
		s.SendUDP(des.Millisecond, b, a, 5000, nil)
		return s.Run()
	}
	seq := build(1, nil)
	// Nodes: hostA=0, r0..r3=1..4, hostB=5. Cut at r1—r2 and r2—r3.
	part := []int32{0, 0, 0, 1, 2, 2}
	par := build(3, part)
	if seq.FlowsCompleted != 1 || par.FlowsCompleted != 1 {
		t.Fatalf("completions: seq=%d par=%d", seq.FlowsCompleted, par.FlowsCompleted)
	}
	diff := seq.LastCompletion - par.LastCompletion
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.01*float64(seq.LastCompletion) {
		t.Errorf("completion times diverge: seq %v vs par %v", seq.LastCompletion, par.LastCompletion)
	}
	if seq.TotalEvents != par.TotalEvents {
		t.Errorf("event counts diverge: seq %d vs par %d", seq.TotalEvents, par.TotalEvents)
	}
	if par.RemoteEvents == 0 {
		t.Error("partitioned run exchanged no remote events; cut not exercised")
	}
}

func TestNodeEventProfiling(t *testing.T) {
	net, a, b := chainNet(3, des.Millisecond, model.Bps1G)
	s := sim(t, net, nil, 1, des.Millisecond, 5*des.Second)
	s.StartFlowRecv(0, a, b, 50_000, nil, nil)
	res := s.Run()
	// Every router on the path must have recorded events; data+ack both
	// traverse all of them.
	for r := 1; r <= 3; r++ {
		if res.NodeEvents[r] == 0 {
			t.Errorf("router %d recorded no events", r)
		}
	}
	if res.NodeEvents[1] < 30 {
		t.Errorf("router 1 events = %d, want ≥ 30 (35 data + 35 acks)", res.NodeEvents[1])
	}
}

func TestLinkBitsProfiling(t *testing.T) {
	net, a, b := chainNet(2, des.Millisecond, model.Bps1G)
	s := sim(t, net, nil, 1, des.Millisecond, 5*des.Second)
	s.StartFlowRecv(0, a, b, 30_000, nil, nil)
	res := s.Run()
	for i, bits := range res.LinkBits {
		if bits == 0 {
			t.Errorf("link %d carried no traffic", i)
		}
	}
	// The payload plus headers and acks crossed every link: ≥ 30 KB.
	if res.LinkBits[0] < 8*30_000 {
		t.Errorf("access link carried %d bits, want ≥ %d", res.LinkBits[0], 8*30_000)
	}
}

func TestScheduleAtRunsOnOwningEngine(t *testing.T) {
	net, a, b := chainNet(4, des.Millisecond, model.Bps1G)
	part := []int32{0, 0, 0, 1, 2, 2}
	s := sim(t, net, part, 3, des.Millisecond, des.Second)
	ran := -1
	s.ScheduleAt(b, 100*des.Microsecond, func(des.Time) {
		ran = s.EngineOf(b)
	})
	_ = a
	s.Run()
	if ran != 2 {
		t.Errorf("handler engine = %d, want 2", ran)
	}
}

func BenchmarkFlowChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, a, dst := chainNet(5, des.Millisecond, model.Bps1G)
		s, err := New(Config{
			Net: net, Routes: interdomain.New(net), Engines: 1,
			Window: des.Millisecond, End: 5 * des.Second, Sync: cluster.Fixed{CostNS: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		s.StartFlowRecv(0, a, dst, 500_000, nil, nil)
		if res := s.Run(); res.FlowsCompleted != 1 {
			b.Fatal("flow incomplete")
		}
	}
}

func TestRetransmissionAndLinkDropCounters(t *testing.T) {
	// Tiny bottleneck buffer forces drops; the counters must agree.
	net, a, b := chainNet(2, des.Millisecond, 10_000_000)
	s, err := New(Config{
		Net: net, Routes: interdomain.New(net), Engines: 1,
		Window: des.Millisecond, End: 60 * des.Second,
		Sync: cluster.Fixed{CostNS: 1}, QueueBytes: 6000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.StartFlowRecv(0, a, b, 400_000, nil, nil)
	res := s.Run()
	if res.FlowsCompleted != 1 {
		t.Fatalf("flow incomplete (dropped=%d)", res.Dropped)
	}
	if res.Dropped == 0 {
		t.Fatal("no drops despite tiny buffer")
	}
	if res.Retransmissions == 0 {
		t.Error("drops occurred but no retransmissions counted")
	}
	var linkDrops uint64
	for _, d := range res.LinkDrops {
		linkDrops += d
	}
	if linkDrops != res.Dropped {
		t.Errorf("per-link drops %d != total dropped %d (all drops here are queue drops)",
			linkDrops, res.Dropped)
	}
}

func TestNoRetransmissionsOnCleanPath(t *testing.T) {
	net, a, b := chainNet(2, des.Millisecond, model.Bps1G)
	s := sim(t, net, nil, 1, des.Millisecond, 10*des.Second)
	s.StartFlowRecv(0, a, b, 100_000, nil, nil)
	res := s.Run()
	if res.Retransmissions != 0 {
		t.Errorf("clean path produced %d retransmissions", res.Retransmissions)
	}
}

// loopyRoutes forwards every packet back and forth between two routers —
// the adversarial Routes implementation TTL protection exists for.
type loopyRoutes struct{ a, b model.LinkID }

func (r loopyRoutes) NextLink(cur, dst model.NodeID) model.LinkID {
	if cur%2 == 0 {
		return r.a
	}
	return r.b
}

func TestTTLBreaksForwardingLoops(t *testing.T) {
	net := &model.Network{}
	h := net.AddNode(model.Host, 0, 0, 0)
	r0 := net.AddNode(model.Router, 0, 1, 0)
	r1 := net.AddNode(model.Router, 0, 2, 0)
	dst := net.AddNode(model.Host, 0, 3, 0)
	l0 := net.AddLink(h, r0, 10_000, model.Bps1G)
	l1 := net.AddLink(r0, r1, 10_000, model.Bps1G)
	net.AddLink(r1, dst, 10_000, model.Bps1G)
	s, err := New(Config{
		Net: net, Routes: loopyRoutes{a: l1, b: l0}, Engines: 1,
		Window: des.Millisecond, End: des.Second, Sync: cluster.Fixed{CostNS: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	delivered := false
	s.SendUDP(0, h, dst, 100, func(des.Time) { delivered = true })
	res := s.Run()
	if delivered {
		t.Error("packet delivered through a loop")
	}
	if res.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1 (TTL kill)", res.Dropped)
	}
	// The loop must have terminated well before the horizon: events are
	// bounded by the TTL.
	if res.TotalEvents > 2*DefaultTTL {
		t.Errorf("loop generated %d events; TTL not limiting", res.TotalEvents)
	}
}

func TestTCPFairnessAtBottleneck(t *testing.T) {
	// Two long flows sharing a bottleneck should finish within ~2× of
	// each other (rough TCP fairness).
	net, a, b := chainNet(2, des.Millisecond, 50_000_000)
	c := net.AddNode(model.Host, 0, 0, 1)
	net.AddLink(c, 1, 10_000, 50_000_000)
	s, err := New(Config{
		Net: net, Routes: interdomain.New(net), Engines: 1,
		Window: des.Millisecond, End: 120 * des.Second, Sync: cluster.Fixed{CostNS: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var doneA, doneC des.Time
	s.StartFlowRecv(0, a, b, 2_000_000, func(at des.Time) { doneA = at }, nil)
	s.StartFlowRecv(0, c, b, 2_000_000, func(at des.Time) { doneC = at }, nil)
	res := s.Run()
	if res.FlowsCompleted != 2 {
		t.Fatalf("completed %d flows", res.FlowsCompleted)
	}
	ratio := float64(doneA) / float64(doneC)
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("unfair completion: %v vs %v (ratio %.2f)", doneA, doneC, ratio)
	}
}

// TestFinishedFlowsReleased checks that a completed flow is garbage once no
// event or packet refers to it, though its Sim lives on: a long-running
// online simulation must not hold every transfer it ever carried. Each
// flow's onDeliver captures a sentinel with a finalizer; after the run
// every completed flow's sentinel must be collected while s is still
// referenced.
func TestFinishedFlowsReleased(t *testing.T) {
	const flows = 40
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			net, a, b := chainNet(5, des.Millisecond, model.Bps1G)
			part := map[int][]int32{1: nil, 2: {0, 0, 0, 1, 1, 1, 1}, 4: {0, 0, 1, 2, 3, 3, 3}}[k]
			s := sim(t, net, part, k, des.Millisecond, 2*des.Second)
			var collected atomic.Int64
			completed := make([]bool, flows)
			for i := 0; i < flows; i++ {
				src, dst := a, b
				if i%2 == 1 {
					src, dst = b, a
				}
				sentinel := new([32]byte)
				runtime.SetFinalizer(sentinel, func(*[32]byte) { collected.Add(1) })
				s.StartFlowRecv(des.Time(i)*5*des.Millisecond, src, dst, 20_000,
					func(des.Time) { completed[i] = true },
					func(des.Time) { sentinel[0]++ })
			}
			res := s.Run()
			if res.FlowsCompleted != flows {
				t.Fatalf("%d of %d flows completed", res.FlowsCompleted, flows)
			}
			for i, c := range completed {
				if !c {
					t.Fatalf("flow %d counted completed but its onComplete never ran", i)
				}
			}
			for try := 0; try < 100 && collected.Load() < flows; try++ {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			if n := collected.Load(); n != flows {
				t.Errorf("%d of %d completed flows collected while their Sim is still referenced", n, flows)
			}
			runtime.KeepAlive(s)
		})
	}
}
