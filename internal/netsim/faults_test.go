package netsim

import (
	"reflect"
	"testing"

	"massf/internal/des"
	"massf/internal/faults"
	"massf/internal/model"
	"massf/internal/routing/interdomain"
	"massf/internal/telemetry"
)

// faultSquare builds a single-AS ring r0—r1—r2—r3—r0 with hosts h0 on r0
// and h1 on r2. The cheap h0→h1 path runs r0—r1—r2; r3 is the detour.
func faultSquare(t *testing.T) (net *model.Network, h0, h1 model.NodeID, l01 model.LinkID) {
	t.Helper()
	net = &model.Network{}
	var r [4]model.NodeID
	for i := range r {
		r[i] = net.AddNode(model.Router, 0, float64(i), 0)
	}
	h0 = net.AddNode(model.Host, 0, 0, 10)
	h1 = net.AddNode(model.Host, 0, 2, 10)
	l01 = net.AddLink(r[0], r[1], 10_000, model.Bps1G)
	net.AddLink(r[1], r[2], 10_000, model.Bps1G)
	net.AddLink(r[2], r[3], 15_000, model.Bps1G)
	net.AddLink(r[3], r[0], 15_000, model.Bps1G)
	net.AddLink(h0, r[0], 10_000, model.Bps1G)
	net.AddLink(h1, r[2], 10_000, model.Bps1G)
	net.ASes = []model.AS{{
		ID: 0, Routers: r[:], Hosts: []model.NodeID{h0, h1}, DefaultBorder: -1,
	}}
	if err := net.Validate(); err != nil {
		t.Fatalf("test net invalid: %v", err)
	}
	return net, h0, h1, l01
}

// outageRun executes UDP probes every 2 ms across a scripted 100–300 ms
// outage of the l01 backbone link and returns the per-probe delivery times
// plus the run result.
func outageRun(t *testing.T, engines int, tel *telemetry.SimTelemetry) ([]des.Time, *faults.Plane, Result) {
	t.Helper()
	net, h0, h1, l01 := faultSquare(t)
	routes := interdomain.New(net)
	script := &faults.Script{
		// 10 ms modeled convergence: a handful of 2 ms-spaced probes die
		// in the blackhole window.
		Events: []faults.Event{
			{At: 100 * des.Millisecond, Kind: faults.LinkDown, Link: l01, ConvergeNS: 10_000_000},
			{At: 300 * des.Millisecond, Kind: faults.LinkUp, Link: l01, ConvergeNS: 10_000_000},
		},
	}
	plane, err := faults.NewPlane(net, routes, script)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Net: net, Routes: routes, Part: nil, Engines: engines,
		Window: 10 * des.Millisecond, End: 600 * des.Millisecond,
		Faults: plane, Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	const probes = 250 // every 2 ms over [0, 500 ms)
	recv := make([]des.Time, probes)
	for i := 0; i < probes; i++ {
		i := i
		at := des.Time(i) * 2 * des.Millisecond
		s.SendUDP(at, h0, h1, 100, func(d des.Time) { recv[i] = d })
	}
	res := s.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return recv, plane, res
}

// The acceptance scenario: a scripted link failure produces measurable
// loss (attributed to the fault), then deliveries resume over the detour
// BEFORE the link heals, with the convergence time visible in the report.
func TestLinkOutageBlackholeThenReroute(t *testing.T) {
	tel := telemetry.New(1, 64)
	recv, plane, res := outageRun(t, 1, tel)

	if len(res.FaultDrops) != plane.NumFaults() || plane.NumFaults() != 2 {
		t.Fatalf("FaultDrops len %d, NumFaults %d, want 2 and 2", len(res.FaultDrops), plane.NumFaults())
	}
	if res.FaultDrops[0] == 0 {
		t.Fatal("no loss attributed to the link-down blackhole window")
	}
	if res.FaultDrops[1] != 0 {
		t.Fatalf("%d drops attributed to the link-UP event", res.FaultDrops[1])
	}
	ev := plane.Events()[0]
	if ev.ConvergeNS != 10_000_000 || ev.RoutesAt != 110*des.Millisecond {
		t.Fatalf("fault 0 converge=%dns routesAt=%v, want 10ms and 110ms", ev.ConvergeNS, ev.RoutesAt)
	}

	// Probes sent before the fault and probes sent between reconvergence
	// and the heal must both arrive; the blackhole window loses its
	// in-flight probes.
	idx := func(at des.Time) int { return int(at / (2 * des.Millisecond)) }
	for i := 0; i < idx(100*des.Millisecond)-1; i++ {
		if recv[i] == 0 {
			t.Fatalf("pre-fault probe %d lost", i)
		}
	}
	lost := 0
	for i := idx(100 * des.Millisecond); i < idx(110*des.Millisecond); i++ {
		if recv[i] == 0 {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("no probes lost in the blackhole window")
	}
	for i := idx(112 * des.Millisecond); i < idx(300*des.Millisecond); i++ {
		if recv[i] == 0 {
			t.Fatalf("probe %d (sent %v, after reconvergence, before heal) lost — detour not used",
				i, des.Time(i)*2*des.Millisecond)
		}
	}
	// The detour is two 15 µs hops instead of 10+10: rerouted probes
	// arrive measurably later than pre-fault ones.
	if pre, post := recv[0]-0, recv[idx(200*des.Millisecond)]-200*des.Millisecond; post <= pre {
		t.Errorf("rerouted latency %v not above pre-fault %v", post, pre)
	}

	if got := tel.FaultEvents.Load(); got != 2 {
		t.Errorf("telemetry fault events = %d, want 2", got)
	}
	if got := tel.FaultDrops.Load(); got != res.FaultDrops[0] {
		t.Errorf("telemetry fault drops = %d, want %d", got, res.FaultDrops[0])
	}
	if got := tel.FaultConverge.Load(); got != 10_000_000 {
		t.Errorf("telemetry convergence gauge = %dns, want 10ms", got)
	}
}

// Same scenario, same seed, run twice and on 1 vs 2 engines: the fault
// plane is a pure function of time, so results are byte-identical.
func TestFaultRunsDeterministic(t *testing.T) {
	type fingerprint struct {
		recv   []des.Time
		drops  []uint64
		events uint64
		bits   uint64
	}
	fp := func(engines int) fingerprint {
		recv, _, res := outageRun(t, engines, nil)
		return fingerprint{recv: recv, drops: res.FaultDrops, events: res.TotalEvents, bits: res.DeliveredBits}
	}
	a, b := fp(1), fp(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical sequential fault runs diverged")
	}
	c := fp(2)
	if !reflect.DeepEqual(a, c) {
		t.Fatal("sequential and 2-engine fault runs diverged")
	}
}

// A router outage must kill traffic through it (attributed to the fault)
// and drop injections from hosts behind it, deterministically.
func TestNodeOutageDropsAndAttributes(t *testing.T) {
	net, h0, h1, _ := faultSquare(t)
	routes := interdomain.New(net)
	// r2 is h1's access router: during the outage nothing reaches h1.
	script := &faults.Script{Events: faults.NodeOutage(2, 100*des.Millisecond, 100*des.Millisecond)}
	plane, err := faults.NewPlane(net, routes, script)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Net: net, Routes: routes, Engines: 1,
		Window: 10 * des.Millisecond, End: 400 * des.Millisecond,
		Faults: plane,
	})
	if err != nil {
		t.Fatal(err)
	}
	var blackhole, during, after des.Time
	// Sent before reconvergence: stale routing still forwards into r2,
	// which eats the packet — loss attributed to the fault. Sent after:
	// routing knows h1 is unreachable and drops at the source router.
	s.SendUDP(100*des.Millisecond+500*des.Microsecond, h0, h1, 100, func(d des.Time) { blackhole = d })
	s.SendUDP(150*des.Millisecond, h0, h1, 100, func(d des.Time) { during = d })
	s.SendUDP(250*des.Millisecond, h0, h1, 100, func(d des.Time) { after = d })
	res := s.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if blackhole != 0 || during != 0 {
		t.Fatalf("probe delivered (blackhole %v, during %v) while its access router was down", blackhole, during)
	}
	if after == 0 {
		t.Fatal("probe after router recovery lost")
	}
	if res.FaultDrops[0] == 0 {
		t.Fatal("no loss attributed to the router outage")
	}
}

// A partitioned TCP endpoint keeps retransmitting into a routing table that
// has no entry for its peer; those no-route losses at the sender (and the
// receiver's unroutable ACKs) are drops like any other, so the telemetry
// counter behind massf_net_drops_total must end equal to Result.Dropped.
func TestPartitionedTCPDropsReachTelemetry(t *testing.T) {
	// A line h0—r0—r1—r2—r3—h1 with the transfer between its end hosts:
	// once r1—r2 is down and routing has reconverged there is no detour.
	net := &model.Network{}
	var r [4]model.NodeID
	for i := range r {
		r[i] = net.AddNode(model.Router, 0, float64(i), 0)
	}
	h0 := net.AddNode(model.Host, 0, 0, 1)
	h1 := net.AddNode(model.Host, 0, 3, 1)
	net.AddLink(h0, r[0], 10_000, model.Bps1G)
	net.AddLink(r[0], r[1], 10_000, model.Bps1G)
	mid := net.AddLink(r[1], r[2], 10_000, model.Bps1G)
	net.AddLink(r[2], r[3], 10_000, model.Bps1G)
	net.AddLink(r[3], h1, 10_000, model.Bps1G)
	net.ASes = []model.AS{{ID: 0, Routers: r[:], Hosts: []model.NodeID{h0, h1}, DefaultBorder: -1}}
	if err := net.Validate(); err != nil {
		t.Fatalf("test net invalid: %v", err)
	}
	routes := interdomain.New(net)
	plane, err := faults.NewPlane(net, routes, &faults.Script{Events: []faults.Event{
		{At: 2 * des.Millisecond, Kind: faults.LinkDown, Link: mid, ConvergeNS: 1_000_000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(1, 64)
	s, err := New(Config{
		Net: net, Routes: routes, Engines: 1,
		Window: 10 * des.Millisecond, End: 3 * des.Second,
		Faults: plane, Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := des.Time(0)
	s.StartFlowRecv(0, h0, h1, 4_000_000, func(at des.Time) { done = at }, nil)
	res := s.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if done != 0 {
		t.Fatalf("transfer completed at %v across a cut line", done)
	}
	if res.Retransmissions == 0 || res.Dropped <= res.FaultDrops[0] {
		t.Fatalf("no post-reconvergence retransmission was dropped: %d retransmissions, %d dropped, %d in the blackhole window",
			res.Retransmissions, res.Dropped, res.FaultDrops[0])
	}
	if got := tel.Drops.Load(); got != res.Dropped {
		t.Errorf("telemetry drops = %d, Result.Dropped = %d", got, res.Dropped)
	}
}
