package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"massf/internal/cluster"
	"massf/internal/des"
	"massf/internal/mabrite"
	"massf/internal/model"
	"massf/internal/routing/interdomain"
)

// The event pipeline must replay byte-for-byte: the same seed and config
// produce identical statistics run over run, and — the regression this
// test pins — identical statistics across refactors of the kernel and
// exchange layers. The golden values below were captured from the
// pre-pooling pipeline (container/heap kernel, copying exchange); any
// change to them means the (at, src, seq) total order of event execution
// changed, which breaks deterministic replay.
type determinismGolden struct {
	engines       int
	totalEvents   uint64
	engineEvents  string // fmt.Sprint of Stats.EngineEvents
	modeledTimeNS int64
	deliveredBits uint64
}

var determinismGoldens = []determinismGolden{
	{
		engines:       1,
		totalEvents:   31533,
		engineEvents:  "[31533]",
		modeledTimeNS: 472995000,
		deliveredBits: 32704864,
	},
	{
		engines:       8,
		totalEvents:   31533,
		engineEvents:  "[4275 3556 3374 4597 4141 4824 3396 3370]",
		modeledTimeNS: 357050000,
		deliveredBits: 32704864,
	},
}

// determinismNet builds a 24-router ring with chords, one host per router.
// Every link latency is ≥ the 1ms window, so any partition is legal and an
// 8-way modulo cut exercises the cross-engine exchange heavily.
func determinismNet() *model.Network {
	const routers = 24
	net := &model.Network{}
	var rs [routers]model.NodeID
	for i := 0; i < routers; i++ {
		rs[i] = net.AddNode(model.Router, 0, float64(i), 0)
	}
	var hosts [routers]model.NodeID
	for i := 0; i < routers; i++ {
		hosts[i] = net.AddNode(model.Host, 0, float64(i), 1)
		net.AddLink(rs[i], hosts[i], int64(des.Millisecond), model.Bps100M)
	}
	for i := 0; i < routers; i++ {
		net.AddLink(rs[i], rs[(i+1)%routers], int64(2*des.Millisecond), model.Bps100M)
	}
	for i := 0; i < routers; i += 3 { // chords give the routing real choices
		net.AddLink(rs[i], rs[(i+routers/2)%routers], int64(3*des.Millisecond), model.Bps100M)
	}
	net.ASes = []model.AS{{ID: 0, DefaultBorder: -1}}
	return net
}

// runDeterminism executes the fixed workload on n engines and returns the
// comparable statistics.
func runDeterminism(t *testing.T, engines int) determinismGolden {
	t.Helper()
	net := determinismNet()
	part := make([]int32, len(net.Nodes))
	for i := range part {
		part[i] = int32(i % engines)
	}
	s, err := New(Config{
		Net: net, Routes: interdomain.New(net), Part: part, Engines: engines,
		Window: des.Millisecond, End: 4 * des.Second,
		Sync: cluster.Fixed{CostNS: 20_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	var hosts []model.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			hosts = append(hosts, model.NodeID(i))
		}
	}
	// Workload-level randomness is seeded and feeds only into setup, so the
	// schedule of injected traffic is identical every run.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		at := des.Time(rng.Intn(2000)) * des.Millisecond
		bytes := int64(2_000 + rng.Intn(200_000))
		s.StartFlowRecv(at, src, dst, bytes, nil, nil)
	}
	for i := 0; i < 40; i++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		at := des.Time(rng.Intn(3000)) * des.Millisecond
		s.SendUDP(at, src, dst, int64(100+rng.Intn(10_000)), nil)
	}
	res := s.Run()
	return determinismGolden{
		engines:       engines,
		totalEvents:   res.TotalEvents,
		engineEvents:  fmt.Sprint(res.EngineEvents),
		modeledTimeNS: res.ModeledTimeNS,
		deliveredBits: res.DeliveredBits,
	}
}

// TestDeterminismGolden pins the replay semantics: two fresh runs agree
// with each other and with the committed pre-refactor goldens, for both
// the sequential and the 8-engine parallel pipeline.
func TestDeterminismGolden(t *testing.T) {
	for _, want := range determinismGoldens {
		want := want
		t.Run(fmt.Sprintf("N=%d", want.engines), func(t *testing.T) {
			first := runDeterminism(t, want.engines)
			second := runDeterminism(t, want.engines)
			if first != second {
				t.Fatalf("nondeterministic across runs:\n first %+v\nsecond %+v", first, second)
			}
			if first != want {
				t.Fatalf("replay semantics changed:\n   got %+v\ngolden %+v", first, want)
			}
		})
	}
}

// Multi-AS goldens: the same replay pin over an Internet-like mabrite
// topology routed by BGP4 policy routing plus intra-AS OSPF — so the pin
// covers internal/routing (interdomain path selection, border hand-off,
// host caches), not just flat OSPF. Captured from the current pipeline;
// any change means multi-AS forwarding or the event order changed.
var multiASGoldens = []determinismGolden{
	{
		engines:       1,
		totalEvents:   26672,
		engineEvents:  "[26672]",
		modeledTimeNS: 400080000,
		deliveredBits: 24858400,
	},
	{
		engines:       4,
		totalEvents:   26672,
		engineEvents:  "[15367 3162 0 8143]",
		modeledTimeNS: 336545000,
		deliveredBits: 24858400,
	},
}

// runMultiASDeterminism executes a fixed workload on an Internet-like
// multi-AS topology: 6 ASes × 10 routers with 30 hosts (mabrite seed 1),
// partitioned AS-modulo so only inter-AS links are cut and every engine
// boundary exercises the BGP border forwarding path. The window is the
// partition's true MLL (the minimum cut-link latency), computed from the
// topology like the mapper would.
func runMultiASDeterminism(t *testing.T, engines int) determinismGolden {
	t.Helper()
	net, err := mabrite.Generate(mabrite.Options{ASes: 6, RoutersPerAS: 10, Hosts: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	part := make([]int32, len(net.Nodes))
	window := des.Time(100 * des.Millisecond)
	for i := range part {
		part[i] = net.Nodes[i].AS % int32(engines)
	}
	for _, l := range net.Links {
		if part[l.A] != part[l.B] && des.Time(l.Latency) < window {
			window = des.Time(l.Latency)
		}
	}
	router := interdomain.New(net)
	var hosts []model.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			hosts = append(hosts, model.NodeID(i))
		}
	}
	s, err := New(Config{
		Net: net, Routes: router, Part: part, Engines: engines,
		Window: window, End: 4 * des.Second,
		Sync: cluster.Fixed{CostNS: 20_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		at := des.Time(rng.Intn(2000)) * des.Millisecond
		bytes := int64(2_000 + rng.Intn(200_000))
		s.StartFlowRecv(at, src, dst, bytes, nil, nil)
	}
	for i := 0; i < 30; i++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		at := des.Time(rng.Intn(3000)) * des.Millisecond
		s.SendUDP(at, src, dst, int64(100+rng.Intn(10_000)), nil)
	}
	res := s.Run()
	return determinismGolden{
		engines:       engines,
		totalEvents:   res.TotalEvents,
		engineEvents:  fmt.Sprint(res.EngineEvents),
		modeledTimeNS: res.ModeledTimeNS,
		deliveredBits: res.DeliveredBits,
	}
}

// TestMultiASDeterminismGolden pins replay over BGP4+OSPF routing the same
// way TestDeterminismGolden pins it over flat OSPF.
func TestMultiASDeterminismGolden(t *testing.T) {
	for _, want := range multiASGoldens {
		want := want
		t.Run(fmt.Sprintf("N=%d", want.engines), func(t *testing.T) {
			first := runMultiASDeterminism(t, want.engines)
			second := runMultiASDeterminism(t, want.engines)
			if first != second {
				t.Fatalf("nondeterministic across runs:\n first %+v\nsecond %+v", first, second)
			}
			if first != want {
				t.Fatalf("replay semantics changed:\n   got %+v\ngolden %+v", first, want)
			}
		})
	}
}
