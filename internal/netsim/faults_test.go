package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"massf/internal/des"
	"massf/internal/faults"
	"massf/internal/model"
	"massf/internal/pdes"
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

	tot := storedTotals(t, tel)
	if got := tot["massf_net_fault_events_total"]; got != 2 {
		t.Errorf("telemetry fault events = %v, want 2", got)
	}
	if got := tot["massf_net_fault_drops_total"]; got != float64(res.FaultDrops[0]) {
		t.Errorf("telemetry fault drops = %v, want %d", got, res.FaultDrops[0])
	}
	if got := tot["massf_net_fault_converge_ns"]; got != 10_000_000 {
		t.Errorf("telemetry convergence gauge = %vns, want 10ms", got)
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

// storedTotals reads a run's stored totals back through Gather, keyed by
// metric name (per-engine points summed).
func storedTotals(t *testing.T, tel *telemetry.SimTelemetry) map[string]float64 {
	t.Helper()
	got := map[string]float64{}
	for _, p := range tel.Gather("r") {
		got[p.Name] += p.Value
	}
	return got
}

func sum(xs []uint64) (n uint64) {
	for _, x := range xs {
		n += x
	}
	return n
}

// TestTelemetryNetTotalsEqualResult checks that a run's stored network
// totals are the Result's, at every engine count, with and without a
// fault that partitions the network. On a line h0—r0—r1—r2—r3—h1 with
// short queues two TCP transfers and a datagram cross between the end
// hosts; without faults both transfers complete through tail drops. The
// fault script
// takes r1—r2 down (no detour: the senders keep retransmitting into a
// routing table without an entry for their peer, and those no-route losses
// are drops like any other) and then r2—r3. A finished run's telemetry
// keeps its totals but no longer reaches into the Sim (a daemon keeps every
// finished run's telemetry). A pdes-only run, with no
// network model to report totals, publishes Stats' events, remote events
// and windows.
func TestTelemetryNetTotalsEqualResult(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		for _, partitioned := range []bool{false, true} {
			t.Run(fmt.Sprintf("k=%d/partitioned=%v", k, partitioned), func(t *testing.T) {
				telemetryTotalsRun(t, k, partitioned)
			})
		}
	}
	t.Run("pdes-only", func(t *testing.T) {
		tel := telemetry.New(2, 64)
		ps, err := pdes.New(pdes.Config{Engines: 2, Window: des.Millisecond, End: 20 * des.Millisecond, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 20; w += 3 {
			at := des.Time(w) * des.Millisecond
			ps.Engine(0).Schedule(at, func(des.Time) {
				ps.Engine(0).ScheduleRemoteEvent(1, at+des.Millisecond, des.Handler(func(des.Time) {}))
			})
		}
		stats := ps.Run()
		got := tel.Progress()
		if got.Events != stats.TotalEvents || got.Remote != stats.RemoteEvents || got.Windows != uint64(stats.Windows) || got.Remote == 0 {
			t.Errorf("published %+v, Stats events %d remote %d windows %d",
				got, stats.TotalEvents, stats.RemoteEvents, stats.Windows)
		}
		if tot := storedTotals(t, tel); tot["massf_net_link_bits_total"] != 0 || tot["massf_net_flows_started_total"] != 0 {
			t.Errorf("network totals without a network model: %v", tot)
		}
	})
}

func telemetryTotalsRun(t *testing.T, k int, partitioned bool) {
	net := &model.Network{}
	var r [4]model.NodeID
	for i := range r {
		r[i] = net.AddNode(model.Router, 0, float64(i), 0)
	}
	h0 := net.AddNode(model.Host, 0, 0, 1)
	h1 := net.AddNode(model.Host, 0, 3, 1)
	net.AddLink(h0, r[0], 1_000_000, model.Bps1G)
	net.AddLink(r[0], r[1], 1_000_000, model.Bps1G)
	mid := net.AddLink(r[1], r[2], 1_000_000, model.Bps1G)
	tail := net.AddLink(r[2], r[3], 1_000_000, model.Bps1G)
	net.AddLink(r[3], h1, 1_000_000, model.Bps1G)
	net.ASes = []model.AS{{ID: 0, Routers: r[:], Hosts: []model.NodeID{h0, h1}, DefaultBorder: -1}}
	if err := net.Validate(); err != nil {
		t.Fatalf("test net invalid: %v", err)
	}
	routes := interdomain.New(net)
	cfg := Config{
		Net: net, Routes: routes, Engines: k,
		Part:   map[int][]int32{1: nil, 2: {0, 0, 1, 1, 0, 1}, 4: {0, 1, 2, 3, 0, 3}}[k],
		Window: des.Millisecond, End: 3 * des.Second, QueueBytes: 16_000,
		Telemetry: telemetry.New(k, 64),
	}
	var plane *faults.Plane
	if partitioned {
		var err error
		plane, err = faults.NewPlane(net, routes, &faults.Script{Events: []faults.Event{
			{At: 20 * des.Millisecond, Kind: faults.LinkDown, Link: mid, ConvergeNS: 10_000_000},
			{At: 40 * des.Millisecond, Kind: faults.LinkDown, Link: tail, ConvergeNS: 3_000_000},
		}})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = plane
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each flow's onComplete records its own completion time (the two run
	// on different engines at k > 1): the oracle for LastCompletion.
	var doneAt [2]des.Time
	s.StartFlowRecv(0, h0, h1, 4_000_000, func(at des.Time) { doneAt[0] = at }, nil)
	s.StartFlowRecv(des.Millisecond, h1, h0, 1_000_000, func(at des.Time) { doneAt[1] = at }, nil)
	s.SendUDP(2*des.Millisecond, h0, h1, 1000, nil)
	res := s.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if last := max(doneAt[0], doneAt[1]); res.LastCompletion != last {
		t.Errorf("LastCompletion = %v, the latest onComplete saw %v", res.LastCompletion, last)
	}
	if cfg.Telemetry.Net != nil {
		t.Error("a finished run's telemetry still reaches into its Sim through Net")
	}
	var faultEvents, converge, routesAt float64
	if partitioned {
		if res.Retransmissions == 0 || res.Dropped <= sum(res.FaultDrops) || sum(res.FaultDrops) == 0 {
			t.Fatalf("no post-reconvergence retransmission was dropped: %d retransmissions, %d dropped, %d to the faults",
				res.Retransmissions, res.Dropped, sum(res.FaultDrops))
		}
		if res.FlowsCompleted != 0 {
			t.Fatalf("%d transfers completed across a cut line", res.FlowsCompleted)
		}
		faultEvents, converge, routesAt = 2, float64(plane.FaultConvergeNS(1)), float64(plane.FaultRoutesAt(1))
	} else if res.FlowsCompleted != 2 || res.Dropped == 0 {
		t.Fatalf("%d of 2 transfers completed with %d tail drops: want both, through drops", res.FlowsCompleted, res.Dropped)
	}
	got := storedTotals(t, cfg.Telemetry)
	for name, want := range map[string]float64{
		"massf_sim_events_total":          float64(res.TotalEvents),
		"massf_sim_remote_events_total":   float64(res.RemoteEvents),
		"massf_engine_events_total":       float64(res.TotalEvents),
		"massf_net_drops_total":           float64(res.Dropped),
		"massf_net_delivered_bits_total":  float64(res.DeliveredBits),
		"massf_net_tcp_retransmits_total": float64(res.Retransmissions),
		"massf_net_flows_started_total":   float64(res.FlowsStarted),
		"massf_net_flows_completed_total": float64(res.FlowsCompleted),
		"massf_net_link_bits_total":       float64(sum(res.LinkBits)),
		"massf_net_fault_drops_total":     float64(sum(res.FaultDrops)),
		"massf_net_fault_events_total":    faultEvents,
		"massf_net_fault_converge_ns":     converge,
		"massf_net_fault_routes_at_ns":    routesAt,
	} {
		if got[name] != want {
			t.Errorf("stored %s = %v, Result has %v", name, got[name], want)
		}
	}
}
