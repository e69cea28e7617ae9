package netsim

import (
	"strings"
	"testing"

	"massf/internal/des"
	"massf/internal/model"
	"massf/internal/pdes"
)

// nopTransport satisfies pdes.Transport for tests that never reach an
// exchange.
type nopTransport struct{}

func (nopTransport) Exchange(pdes.WindowDone) (pdes.WindowGo, error) {
	return pdes.WindowGo{}, nil
}

// distPairNet is the smallest distributable network: two hosts on two
// routers joined by one (cut) link, one node per engine.
func distPairNet() (*model.Network, []int32) {
	net := &model.Network{}
	r0 := net.AddNode(model.Router, 0, 0, 0)
	r1 := net.AddNode(model.Router, 0, 1, 0)
	h0 := net.AddNode(model.Host, 0, 0, 1)
	h1 := net.AddNode(model.Host, 0, 1, 1)
	net.AddLink(r0, r1, int64(2*des.Millisecond), model.Bps100M)
	net.AddLink(r0, h0, int64(2*des.Millisecond), model.Bps100M)
	net.AddLink(r1, h1, int64(2*des.Millisecond), model.Bps100M)
	net.ASes = []model.AS{{ID: 0, DefaultBorder: -1}}
	return net, []int32{0, 1, 2, 3}
}

type staticRoutes struct {
	next map[[2]model.NodeID]model.LinkID
}

func (r staticRoutes) NextLink(cur, dst model.NodeID) model.LinkID {
	if l, ok := r.next[[2]model.NodeID{cur, dst}]; ok {
		return l
	}
	return -1
}

func newDistSim(t *testing.T) *Sim {
	t.Helper()
	net, part := distPairNet()
	s, err := New(Config{
		Net: net, Routes: staticRoutes{}, Part: part, Engines: 4,
		Window: des.Millisecond, End: 10 * des.Millisecond,
		Transport: nopTransport{}, FirstEngine: 0, HostedEngines: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The encoder must reject state that cannot be reconstructed on another
// worker, instead of silently dropping callbacks.
func TestCodecEncodeGuards(t *testing.T) {
	s := newDistSim(t)
	c := netCodec{s: s}

	t.Run("runtime closure receiver callback", func(t *testing.T) {
		f := &flow{id: runtimeFlowIDBase | 1, totalPkts: 3, onDeliver: func(des.Time) {}}
		h := &hopEvent{s: s, node: 1, pkt: Packet{Src: 2, Dst: 3, flow: f}}
		if _, _, err := c.Encode(h); err == nil || !strings.Contains(err.Error(), "StartFlowTagged") {
			t.Fatalf("expected closure-callback encode error, got %v", err)
		}
	})
	t.Run("flow without identity", func(t *testing.T) {
		h := &hopEvent{s: s, node: 1, pkt: Packet{flow: &flow{}}}
		if _, _, err := c.Encode(h); err == nil {
			t.Fatal("expected missing-identity encode error")
		}
	})
	t.Run("unregistered runtime UDP callback", func(t *testing.T) {
		h := &hopEvent{s: s, node: 1, pkt: Packet{deliverCb: func(des.Time) {}}}
		if _, _, err := c.Encode(h); err == nil {
			t.Fatal("expected runtime-UDP-callback encode error")
		}
	})
	t.Run("non-hop handler", func(t *testing.T) {
		if _, _, err := c.Encode(nil); err == nil {
			t.Fatal("expected unknown-handler encode error")
		}
	})
}

// Round-trip: a packet with full flow metadata survives encode/decode, and
// an unknown flow id comes back as a wire reference (not a nil flow).
func TestCodecRoundTrip(t *testing.T) {
	s := newDistSim(t)
	c := netCodec{s: s}
	f := &flow{id: 77, totalPkts: 9, lastBits: 4242, deliverTag: Tag{Kind: 5, A: 6, B: 7}}
	s.flows[88] = &flow{id: 88} // known id resolves to the local object
	s.tags[5] = func(Tag, model.NodeID, model.NodeID) func(des.Time) { return nil }

	h := &hopEvent{s: s, node: 3, pkt: Packet{
		Src: 2, Dst: 3, Bits: 12_000, Seq: 4, flow: f, ttl: 60,
	}}
	kind, payload, err := c.Encode(h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(1, kind, payload)
	if err != nil {
		t.Fatal(err)
	}
	g := got.(*hopEvent)
	if g.node != 3 || g.pkt.Src != 2 || g.pkt.Dst != 3 || g.pkt.Bits != 12_000 ||
		g.pkt.Seq != 4 || g.pkt.ttl != 60 {
		t.Fatalf("packet fields mangled: %+v", g.pkt)
	}
	if g.pkt.flow != nil {
		t.Fatal("unknown flow id resolved to a local flow")
	}
	if g.pkt.wref == nil || g.pkt.wref.flowID != 77 || g.pkt.wref.totalPkts != 9 ||
		g.pkt.wref.lastBits != 4242 || g.pkt.wref.deliverTag != (Tag{Kind: 5, A: 6, B: 7}) {
		t.Fatalf("wire flow reference mangled: %+v", g.pkt.wref)
	}

	// Re-encode from the wire reference (a transit worker forwarding the
	// packet onward) must reproduce the same payload.
	kind2, payload2, err := c.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	if kind2 != kind || string(payload2) != string(payload) {
		t.Fatal("transit re-encode differs from the original encoding")
	}

	// A registered id resolves directly to the local object.
	h = &hopEvent{s: s, node: 3, pkt: Packet{Src: 2, Dst: 3, Bits: 12_000, flow: s.flows[88], ttl: 60}}
	_, payload, err = c.Encode(h)
	if err != nil {
		t.Fatal(err)
	}
	got, err = c.Decode(1, hopKind, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.(*hopEvent).pkt.flow != s.flows[88] {
		t.Fatal("registered flow id did not resolve to the local object")
	}

	// Truncated payloads are rejected, never panics or garbage.
	for cut := 0; cut < len(payload); cut++ {
		if _, err := c.Decode(1, hopKind, payload[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := c.Decode(1, 999, payload); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// A cross-worker hop of a flow this worker knows decodes without
// allocating once the destination engine's pool is warm, and encoding
// gives the hop back to the sending engine's pool.
func TestCodecHopsDoNotAllocate(t *testing.T) {
	s := newDistSim(t)
	c := netCodec{s: s}
	s.flows[88] = &flow{id: 88, totalPkts: 9, lastBits: 4242}
	// Node 3 is engine 1's host; link 2 (r1—h1) carries it from r1, also
	// on engine 1.
	h := &hopEvent{s: s, node: 3, link: 2, pkt: Packet{Src: 2, Dst: 3, Bits: 12_000, flow: s.flows[88], ttl: 60}}
	_, payload, err := c.Encode(h)
	if err != nil {
		t.Fatal(err)
	}
	if pool := s.eng[1].hopFree; len(pool) != 1 || pool[0] != h || h.pkt.flow != nil || h.pkt.Bits != 0 {
		t.Fatalf("encoded hop not given back cleared to the sender's pool: pool %v, pkt %+v", pool, h.pkt)
	}
	allocs := testing.AllocsPerRun(100, func() {
		eh, err := c.Decode(1, hopKind, payload)
		if err != nil {
			t.Fatal(err)
		}
		g := eh.(*hopEvent)
		if g.pkt.flow != s.flows[88] {
			t.Fatal("known flow not resolved")
		}
		s.freeHop(1, g)
	})
	if allocs != 0 {
		t.Fatalf("decoding a known flow's hop allocates %v times, want 0", allocs)
	}
}

func TestTagRegistry(t *testing.T) {
	s := newDistSim(t)
	s.RegisterTag(9, func(t Tag, src, dst model.NodeID) func(des.Time) {
		return func(des.Time) {}
	})
	if s.resolveTag(Tag{}, 0, 0) != nil {
		t.Fatal("zero tag must resolve to no callback")
	}
	if s.resolveTag(Tag{Kind: 9}, 0, 0) == nil {
		t.Fatal("registered tag resolved to nil")
	}
	mustPanic(t, "duplicate kind", func() {
		s.RegisterTag(9, func(Tag, model.NodeID, model.NodeID) func(des.Time) { return nil })
	})
	mustPanic(t, "kind 0", func() { s.RegisterTag(0, nil) })
	mustPanic(t, "unregistered kind", func() { s.resolveTag(Tag{Kind: 42}, 0, 0) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}
