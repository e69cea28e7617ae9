package faults

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"sync"
	"testing"

	"massf/internal/des"
	"massf/internal/mabrite"
	"massf/internal/model"
	"massf/internal/routing/interdomain"
	"massf/internal/topology"
)

// squareHost is the host behind router 2 of squareNet, the destination
// its tests route toward.
const squareHost model.NodeID = 4

// squareNet builds a single-AS ring 0—1—2—3—0 with squareHost on router 2,
// where 0→squareHost prefers the cheap path via 1 (10+10 µs) over the
// detour via 3 (15+15 µs).
func squareNet(t testing.TB) (net *model.Network, l01, l30 model.LinkID) {
	t.Helper()
	net = &model.Network{}
	for i := 0; i < 4; i++ {
		net.AddNode(model.Router, 0, float64(i), 0)
	}
	net.AddNode(model.Host, 0, 2, 1)
	l01 = net.AddLink(0, 1, 10_000, model.Bps1G)
	net.AddLink(1, 2, 10_000, model.Bps1G)
	net.AddLink(2, 3, 15_000, model.Bps1G)
	l30 = net.AddLink(3, 0, 15_000, model.Bps1G)
	net.AddLink(2, squareHost, 1_000, model.Bps1G)
	net.ASes = []model.AS{{ID: 0, Routers: []model.NodeID{0, 1, 2, 3}, Hosts: []model.NodeID{squareHost}, DefaultBorder: -1}}
	if err := net.Validate(); err != nil {
		t.Fatalf("test net invalid: %v", err)
	}
	return net, l01, l30
}

func TestLoadRoundTrip(t *testing.T) {
	sc := &Script{
		SPFDelayNS: 1_000_000,
		PerMsgNS:   5_000,
		Events: []Event{
			{At: des.Millisecond, Kind: LinkDown, Link: 3, ConvergeNS: 250_000},
			{At: 2 * des.Millisecond, Kind: LinkFlap, Link: 1, Period: des.Millisecond / 4, Count: 2},
			{At: 5 * des.Millisecond, Kind: NodeDown, Node: 7},
		},
	}
	b, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sc) {
		t.Fatalf("round trip changed the script:\n got %+v\nwant %+v", got, sc)
	}
	if _, err := Load(bytes.NewReader([]byte(`{"evnts":[]}`))); err == nil {
		t.Fatal("Load accepted an unknown field")
	}
	if _, err := Load(bytes.NewReader([]byte(`{"events":[{"at_ns":0,"kind":"link-down","link":0,"node":0}]}`))); err == nil {
		t.Fatal("Load accepted an event at time 0")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Script{
		{Events: []Event{{At: des.Second, Kind: "meteor-strike"}}},
		{Events: []Event{{At: -5, Kind: LinkDown}}},
		{Events: []Event{{At: des.Second, Kind: LinkDown, ConvergeNS: -1}}},
		{Events: []Event{{At: des.Second, Kind: LinkFlap, Period: 0, Count: 2}}},
		{Events: []Event{{At: des.Second, Kind: LinkFlap, Period: des.Millisecond, Count: maxFlaps + 1}}},
		{SPFDelayNS: -1},
		{PerMsgNS: int64(maxEventTime) + 1},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, bad[i])
		}
	}
	var nilScript *Script
	if err := nilScript.Validate(); err != nil {
		t.Errorf("nil script must validate: %v", err)
	}
}

func TestValidateForChecksTargets(t *testing.T) {
	net, _, _ := squareNet(t)
	sc := &Script{Events: []Event{{At: des.Second, Kind: LinkDown, Link: 99}}}
	if err := sc.ValidateFor(net); err == nil {
		t.Fatal("accepted an out-of-range link target")
	}
	sc = &Script{Events: []Event{{At: des.Second, Kind: NodeDown, Node: -1}}}
	if err := sc.ValidateFor(net); err == nil {
		t.Fatal("accepted a negative node target")
	}
}

func TestExpandFlattensFlapsSorted(t *testing.T) {
	sc := &Script{Events: []Event{
		{At: 300, Kind: NodeDown, Node: 2},
		{At: 100, Kind: LinkFlap, Link: 1, Period: 50, Count: 2},
	}}
	ex := sc.Expand()
	if len(ex) != 5 {
		t.Fatalf("expanded to %d events, want 5", len(ex))
	}
	wantAt := []des.Time{100, 150, 200, 250, 300}
	wantKind := []Kind{LinkDown, LinkUp, LinkDown, LinkUp, NodeDown}
	for i, e := range ex {
		if e.At != wantAt[i] || e.Kind != wantKind[i] {
			t.Errorf("expanded[%d] = (%v, %s), want (%v, %s)", i, e.At, e.Kind, wantAt[i], wantKind[i])
		}
	}
}

func TestPlaneEpochRouting(t *testing.T) {
	net, l01, l30 := squareNet(t)
	base := interdomain.New(net)
	const converge = 500_000 // 0.5 ms
	sc := &Script{Events: []Event{
		{At: des.Millisecond, Kind: LinkDown, Link: l01, ConvergeNS: converge},
		{At: 3 * des.Millisecond, Kind: LinkUp, Link: l01, ConvergeNS: converge},
	}}
	p, err := NewPlane(net, base, sc)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumFaults() != 2 {
		t.Fatalf("NumFaults = %d, want 2", p.NumFaults())
	}
	ev := p.Events()[0]
	if ev.ConvergeNS != converge || ev.RoutesAt != des.Millisecond+converge {
		t.Fatalf("event 0 converge=%d routesAt=%v, want %d and %v",
			ev.ConvergeNS, ev.RoutesAt, converge, des.Time(des.Millisecond+converge))
	}

	// Before the fault: cheap path via 1.
	if got := p.NextLink(0, 0, squareHost); got != l01 {
		t.Fatalf("pre-fault NextLink(0→host) = %d, want %d", got, l01)
	}
	// Blackhole window: the link is physically down but routing has not
	// reconverged — forwarding still points at the dead link.
	if up, evi := p.LinkUp(des.Millisecond+100, l01); up || evi != 0 {
		t.Fatalf("LinkUp during outage = (%v, %d), want (false, 0)", up, evi)
	}
	if got := p.NextLink(des.Millisecond+100, 0, squareHost); got != l01 {
		t.Fatalf("blackhole-window NextLink(0→host) = %d, want stale %d", got, l01)
	}
	// After reconvergence: detour via 3, link still down.
	if got := p.NextLink(2*des.Millisecond, 0, squareHost); got != l30 {
		t.Fatalf("post-convergence NextLink(0→host) = %d, want detour %d", got, l30)
	}
	// After the heal converges: back on the cheap path, link up again.
	if up, _ := p.LinkUp(3*des.Millisecond+100, l01); !up {
		t.Fatal("link still down after the up event")
	}
	if got := p.NextLink(4*des.Millisecond, 0, squareHost); got != l01 {
		t.Fatalf("post-heal NextLink(0→host) = %d, want %d", got, l01)
	}
}

func TestPlaneNodeOutage(t *testing.T) {
	net, _, l30 := squareNet(t)
	base := interdomain.New(net)
	sc := &Script{Events: NodeOutage(1, des.Millisecond, des.Millisecond)}
	p, err := NewPlane(net, base, sc)
	if err != nil {
		t.Fatal(err)
	}
	if up, evi := p.NodeUp(des.Millisecond+1, 1); up || evi != 0 {
		t.Fatalf("NodeUp during outage = (%v, %d), want (false, 0)", up, evi)
	}
	if got := p.NextLink(p.FaultRoutesAt(0), 0, squareHost); got != l30 {
		t.Fatalf("NextLink(0→host) with router 1 down = %d, want detour %d", got, l30)
	}
	if up, _ := p.NodeUp(2*des.Millisecond+1, 1); !up {
		t.Fatal("node still down after recovery")
	}
}

func TestPlaneNoOpEvents(t *testing.T) {
	net, l01, _ := squareNet(t)
	base := interdomain.New(net)
	sc := &Script{Events: []Event{{At: des.Millisecond, Kind: LinkUp, Link: l01}}}
	p, err := NewPlane(net, base, sc)
	if err != nil {
		t.Fatal(err)
	}
	ev := p.Events()[0]
	if !ev.NoOp || ev.RoutesAt != ev.At || ev.ConvergeNS != 0 {
		t.Fatalf("upping an up link: %+v, want an instant no-op", ev)
	}
	if up, _ := p.LinkUp(2*des.Millisecond, l01); !up {
		t.Fatal("no-op event changed physical link state")
	}
}

func TestPlaneClampsNonDecreasingEpochs(t *testing.T) {
	net, l01, l30 := squareNet(t)
	base := interdomain.New(net)
	// Event 1 converges slowly; event 2 strikes later but would converge
	// BEFORE event 1's routes land — the combined state must wait.
	sc := &Script{Events: []Event{
		{At: des.Millisecond, Kind: LinkDown, Link: l01, ConvergeNS: 2_000_000},
		{At: des.Millisecond + 100, Kind: LinkDown, Link: l30, ConvergeNS: 100},
	}}
	p, err := NewPlane(net, base, sc)
	if err != nil {
		t.Fatal(err)
	}
	evs := p.Events()
	if evs[1].RoutesAt < evs[0].RoutesAt {
		t.Fatalf("epoch starts decreased: %v then %v", evs[0].RoutesAt, evs[1].RoutesAt)
	}
	if evs[1].RoutesAt != evs[0].RoutesAt {
		t.Fatalf("event 1 routesAt %v, want clamped to event 0's %v", evs[1].RoutesAt, evs[0].RoutesAt)
	}
}

// TestSharedBaseRouterDeterministic: a cached Setup shares one base router
// across concurrent runs, so lookups on it race each run's fault plane
// compilation. Compiling derives new routers and never writes the base:
// the race runs clean under -race, and the base answers afterwards as it
// did before.
func TestSharedBaseRouterDeterministic(t *testing.T) {
	net, err := mabrite.Generate(mabrite.Options{ASes: 4, RoutersPerAS: 12, Hosts: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	base := interdomain.New(net)
	var hosts []model.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			hosts = append(hosts, model.NodeID(i))
		}
	}
	hops := func() []model.LinkID {
		var out []model.LinkID
		for cur := range net.Nodes {
			for _, dst := range hosts {
				out = append(out, base.NextLink(model.NodeID(cur), dst))
			}
		}
		return out
	}
	want := hops()
	script := Generate(net, GenOptions{Seed: 9, Events: 6, Horizon: 200 * des.Millisecond})
	if len(script.Events) == 0 {
		t.Fatal("generator produced no events")
	}
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 4 {
				if !slices.Equal(hops(), want) {
					t.Error("base router's next hops changed while a fault plane compiled from it")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 3 {
			if _, err := NewPlane(net, base, script); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if !slices.Equal(hops(), want) {
		t.Fatal("base router's next hops changed after fault planes were compiled from it")
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 40, Hosts: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opt := GenOptions{Seed: 11, Events: 5, Horizon: 200 * des.Millisecond}
	a := Generate(net, opt)
	b := Generate(net, opt)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (net, options) produced different scripts")
	}
	if len(a.Events) == 0 {
		t.Fatal("generator produced no events on a router-rich topology")
	}
	if err := a.ValidateFor(net); err != nil {
		t.Fatalf("generated script does not validate: %v", err)
	}
	c := Generate(net, GenOptions{Seed: 12, Events: 5, Horizon: 200 * des.Millisecond})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical scripts")
	}
}

func TestCloneIndependence(t *testing.T) {
	sc := &Script{Events: Outage(2, des.Millisecond, des.Millisecond)}
	c := sc.Clone()
	c.Events[0].Link = 9
	c.Events = c.Events[:1]
	if sc.Events[0].Link != 2 || len(sc.Events) != 2 {
		t.Fatal("mutating the clone changed the original")
	}
	var nilScript *Script
	if nilScript.Clone() != nil {
		t.Fatal("Clone of nil must be nil")
	}
}
