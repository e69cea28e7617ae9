package fluid

import (
	"math"
	"reflect"
	"testing"

	"massf/internal/des"
	"massf/internal/faults"
	"massf/internal/model"
	"massf/internal/routing/interdomain"
	"massf/internal/routing/ospf"
)

// routes is OSPF over a single-AS test net with a tree toward every node:
// the tests' flows run between routers.
func routes(net *model.Network) *ospf.Domain {
	all := make([]model.NodeID, len(net.Nodes))
	for i := range all {
		all[i] = model.NodeID(i)
	}
	return ospf.New(net, nil, nil, all)
}

// lineNet builds a single-AS line 0—1—2—3 (10 µs per hop, 1 Gbps).
func lineNet(t testing.TB) *model.Network {
	t.Helper()
	net := &model.Network{}
	for i := 0; i < 4; i++ {
		net.AddNode(model.Router, 0, float64(i), 0)
	}
	net.AddLink(0, 1, 10_000, model.Bps1G)
	net.AddLink(1, 2, 10_000, model.Bps1G)
	net.AddLink(2, 3, 10_000, model.Bps1G)
	net.ASes = []model.AS{{ID: 0, Routers: []model.NodeID{0, 1, 2, 3}, DefaultBorder: -1}}
	if err := net.Validate(); err != nil {
		t.Fatalf("test net invalid: %v", err)
	}
	return net
}

// ringHost is the host behind router 2 of ringNet.
const ringHost model.NodeID = 4

// ringNet builds the faults-test ring 0—1—2—3—0 with ringHost on router 2,
// where 0→ringHost prefers the path via 1 and detours via 3 when link 0—1
// fails.
func ringNet(t testing.TB) (net *model.Network, l01 model.LinkID) {
	t.Helper()
	net = &model.Network{}
	for i := 0; i < 4; i++ {
		net.AddNode(model.Router, 0, float64(i), 0)
	}
	net.AddNode(model.Host, 0, 2, 1)
	l01 = net.AddLink(0, 1, 10_000, model.Bps1G)
	net.AddLink(1, 2, 10_000, model.Bps1G)
	net.AddLink(2, 3, 15_000, model.Bps1G)
	net.AddLink(3, 0, 15_000, model.Bps1G)
	net.AddLink(2, ringHost, 10_000, model.Bps1G)
	net.ASes = []model.AS{{ID: 0, Routers: []model.NodeID{0, 1, 2, 3}, Hosts: []model.NodeID{ringHost}, DefaultBorder: -1}}
	if err := net.Validate(); err != nil {
		t.Fatalf("test net invalid: %v", err)
	}
	return net, l01
}

func TestSingleFlowExactTimeline(t *testing.T) {
	net := lineNet(t)
	cfg := Config{Net: net, Routes: routes(net), End: des.Second}
	p, err := Build(cfg, []Flow{{Src: 0, Dst: 2, Bytes: 1_000_000, Chain: -1}})
	if err != nil {
		t.Fatal(err)
	}
	// 2-hop path: RTT = 40 µs, so the 1 Gbps pipe holds 40 000 bits ≈ 3.4
	// segments. The initial window of 2 doubles once (delivering its 2
	// segments) before the window of 4 fills the pipe and the flow turns
	// network-limited: startup = 1 RTT, 2 · 1460 B credited to slow start.
	wantAdmit := des.Time(1 * 2 * (10_000 + 10_000))
	if got := p.flows[0].admit; got != wantAdmit {
		t.Fatalf("admit = %v, want %v", got, wantAdmit)
	}
	// Alone on the path the flow gets the full 1 Gbps; the remaining
	// wire bits = ceil((1e6−2920)·8 · 1500/1460) transfer in exactly that
	// many ns.
	const ssBytes = 2 * 1460
	wb := des.Time(math.Ceil((1_000_000 - ssBytes) * 8 * 1500.0 / 1460.0))
	if got := p.Completion(0); got != wantAdmit+wb {
		t.Fatalf("Completion = %v, want %v", got, wantAdmit+wb)
	}
	if got := p.PayloadBits(0); got != 8e6 {
		t.Fatalf("PayloadBits = %v, want 8e6", got)
	}
	// Both hop dirs carried the flow's full wire volume (slow-start lump
	// plus the fluid transfer) and nothing else.
	wantBits := float64(wb) + math.Ceil(ssBytes*8*1500.0/1460.0)
	for _, dir := range []int{0, 2} {
		if got := p.DirBits(dir); math.Abs(got-wantBits) > 1 {
			t.Fatalf("DirBits(%d) = %v, want ≈%v", dir, got, wantBits)
		}
	}
	if got := p.DirBits(4); got != 0 {
		t.Fatalf("DirBits off-path = %v, want 0", got)
	}
	// Rate timeline: full capacity mid-transfer, zero after completion.
	if r := p.RateAt(0, wantAdmit+wb/2, nil); r != 1e9 {
		t.Fatalf("mid-transfer RateAt = %v, want 1e9", r)
	}
	if r := p.RateAt(0, p.Completion(0)+1, nil); r != 0 {
		t.Fatalf("post-completion RateAt = %v, want 0", r)
	}
}

func TestTwoFlowsShareBottleneckFairly(t *testing.T) {
	net := lineNet(t)
	cfg := Config{Net: net, Routes: routes(net), End: des.Second}
	// Same size, same start, same path: identical startup delay and an
	// identical half-capacity share, so completions must be bit-equal.
	flows := []Flow{
		{Src: 0, Dst: 3, Bytes: 500_000, Chain: -1},
		{Src: 0, Dst: 3, Bytes: 500_000, Chain: -1},
	}
	p, err := Build(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if p.Completion(0) == 0 || p.Completion(0) != p.Completion(1) {
		t.Fatalf("equal flows completed at %v and %v", p.Completion(0), p.Completion(1))
	}
	// While both are active each holds half the link.
	mid := p.flows[0].admit + (p.Completion(0)-p.flows[0].admit)/2
	if r := p.RateAt(0, mid, nil); r != 1e9 {
		t.Fatalf("shared-dir total load = %v, want full 1e9", r)
	}
	// A solo flow of the same size finishes in about half the shared
	// transfer time (startup delay excluded from the comparison).
	solo, err := Build(cfg, flows[:1])
	if err != nil {
		t.Fatal(err)
	}
	sharedXfer := float64(p.Completion(0) - p.flows[0].admit)
	soloXfer := float64(solo.Completion(0) - solo.flows[0].admit)
	if ratio := sharedXfer / soloXfer; ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("shared/solo transfer ratio = %.3f, want ≈2", ratio)
	}
}

func TestFinishReleasesBandwidth(t *testing.T) {
	net := lineNet(t)
	cfg := Config{Net: net, Routes: routes(net), End: des.Second}
	// The small flow finishes first; the big one then speeds up, so its
	// FCT beats what a permanent half-share would predict.
	p, err := Build(cfg, []Flow{
		{Src: 0, Dst: 3, Bytes: 100_000, Chain: -1},
		{Src: 0, Dst: 3, Bytes: 2_000_000, Chain: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Completion(0) == 0 || p.Completion(0) >= p.Completion(1) {
		t.Fatalf("completions: small %v, big %v", p.Completion(0), p.Completion(1))
	}
	bigWire := 2_000_000 * 8 * 1500.0 / 1460.0
	halfShareXfer := bigWire / 5e8 * 1e9 // ns if stuck at half rate forever
	if got := float64(p.Completion(1) - p.flows[1].admit); got >= halfShareXfer {
		t.Fatalf("big-flow transfer %.0f ns did not speed up after the small flow left (half-share bound %.0f)", got, halfShareXfer)
	}
}

func TestBuildDeterministicAndOrderIndependent(t *testing.T) {
	net := lineNet(t)
	cfg := Config{Net: net, Routes: routes(net), End: des.Second}
	flows := []Flow{
		{Src: 0, Dst: 3, Bytes: 700_000, Start: 0, Chain: -1},
		{Src: 1, Dst: 3, Bytes: 300_000, Start: des.Millisecond, Chain: -1},
		{Src: 0, Dst: 2, Bytes: 1_200_000, Start: 2 * des.Millisecond, Chain: -1},
		{Src: 3, Dst: 0, Bytes: 90_000, Start: des.Millisecond / 2, Chain: -1},
	}
	a, err := Build(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two builds of the same input differ")
	}
	// Supplying the flows in a different order must not change any flow's
	// solved timeline (results are indexed by supply order).
	perm := []int{2, 0, 3, 1}
	shuffled := make([]Flow, len(flows))
	for i, j := range perm {
		shuffled[j] = flows[i]
	}
	c, err := Build(cfg, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range perm {
		if a.Completion(i) != c.Completion(j) || a.flows[i].admit != c.flows[j].admit ||
			math.Float64bits(a.PayloadBits(i)) != math.Float64bits(c.PayloadBits(j)) {
			t.Fatalf("flow %d: solved timeline changed under input permutation", i)
		}
	}
}

func TestQuantumModeApproximatesExact(t *testing.T) {
	net := lineNet(t)
	flows := []Flow{
		{Src: 0, Dst: 3, Bytes: 800_000, Start: 0, Chain: -1},
		{Src: 1, Dst: 3, Bytes: 400_000, Start: des.Millisecond, Chain: -1},
		{Src: 0, Dst: 2, Bytes: 600_000, Start: 3 * des.Millisecond, Chain: -1},
	}
	exact, err := Build(Config{Net: net, Routes: routes(net), End: des.Second}, flows)
	if err != nil {
		t.Fatal(err)
	}
	const q = des.Millisecond
	quant, err := Build(Config{Net: net, Routes: routes(net), End: des.Second, Quantum: q}, flows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flows {
		if quant.Completion(i) == 0 {
			t.Fatalf("flow %d did not complete in quantum mode", i)
		}
		// A rate epoch can be stale by at most one quantum per flow
		// start/finish the flow overlaps; 4 quanta is a generous bound
		// for this 3-flow scenario.
		diff := quant.Completion(i) - exact.Completion(i)
		if diff < -4*q || diff > 4*q {
			t.Fatalf("flow %d: quantum completion %v vs exact %v (off by %v)",
				i, quant.Completion(i), exact.Completion(i), diff)
		}
		if quant.PayloadBits(i) != exact.PayloadBits(i) {
			t.Fatalf("flow %d: payload bits differ (%v vs %v)",
				i, quant.PayloadBits(i), exact.PayloadBits(i))
		}
	}
	q2, err := Build(Config{Net: net, Routes: routes(net), End: des.Second, Quantum: q}, flows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(quant, q2) {
		t.Fatal("quantum-mode build is not deterministic")
	}
	// Each direction's rate timeline and lumps carry what DirBits counts:
	// a completed flow's rate leaves the timeline at its completion, as it
	// leaves DirBits, not at the next grid recompute.
	pair := []Flow{{Src: 0, Dst: 3, Bytes: 1_000_000, Chain: -1}, {Src: 0, Dst: 3, Bytes: 3_000_000, Chain: -1}}
	for _, c := range []struct {
		name  string
		flows []Flow
		q     des.Time
	}{
		{"three flows/1ms", flows, q},
		{"1MB+3MB/exact", pair, 0},
		{"1MB+3MB/1ms", pair, des.Millisecond},
		{"1MB+3MB/5ms", pair, 5 * des.Millisecond},
	} {
		p, err := Build(Config{Net: net, Routes: routes(net), End: des.Second, Quantum: c.q}, c.flows)
		if err != nil {
			t.Fatal(err)
		}
		for dir := range 2 * len(net.Links) {
			var bits float64
			segs := p.DirSegments(dir)
			for i, seg := range segs {
				to := des.Second
				if i+1 < len(segs) {
					to = segs[i+1].At
				}
				bits += seg.Rate * float64(to-seg.At) / float64(des.Second)
			}
			for _, l := range p.DirLumps(dir) {
				bits += l.Bits
			}
			if want := p.DirBits(dir); math.Abs(bits-want) > 1e-9*want {
				t.Errorf("%s: dir %d timeline and lumps carry %.0f bits, DirBits %.0f", c.name, dir, bits, want)
			}
		}
	}
}

func TestFaultStallAndReroute(t *testing.T) {
	net, l01 := ringNet(t)
	base := interdomain.New(net)
	const converge = 500_000
	script := &faults.Script{Events: []faults.Event{
		{At: des.Millisecond, Kind: faults.LinkDown, Link: l01, ConvergeNS: converge},
	}}
	fp, err := faults.NewPlane(net, base, script)
	if err != nil {
		t.Fatal(err)
	}
	// Big enough to still be in flight when the link dies at 1 ms.
	flows := []Flow{{Src: 0, Dst: ringHost, Bytes: 1_250_000, Chain: -1}}
	p, err := Build(Config{Net: net, Routes: base, Faults: fp, End: des.Second}, flows)
	if err != nil {
		t.Fatal(err)
	}
	if p.Completion(0) == 0 {
		t.Fatal("flow never completed despite reconvergence")
	}
	// Blackhole window [1 ms, 1.5 ms): physically down, routes still
	// stale — the fluid flow stalls for exactly the convergence delay.
	if got := p.flows[0].stallNS; got != converge {
		t.Fatalf("stallNS = %d, want %d", got, converge)
	}
	// The stall pushed completion past the no-fault timeline by ≥ the
	// convergence delay (the detour is also one latency-class slower).
	nofault, err := Build(Config{Net: net, Routes: base, End: des.Second}, flows)
	if err != nil {
		t.Fatal(err)
	}
	if p.Completion(0) < nofault.Completion(0)+converge {
		t.Fatalf("faulted completion %v not delayed past %v + stall", p.Completion(0), nofault.Completion(0))
	}
	// After reconvergence the transfer runs the detour: dir of link 3—0
	// transmitting from 0 (dir 2·3+1: node 0 is that link's B end).
	if bits := p.DirBits(7); bits <= 0 {
		t.Fatalf("detour dir carried %v bits, want > 0", bits)
	}
}

func TestFaultPermanentBlackhole(t *testing.T) {
	net := lineNet(t)
	h := net.AddNode(model.Host, 0, 3, 1)
	net.AddLink(3, h, 10_000, model.Bps1G)
	net.ASes[0].Hosts = []model.NodeID{h}
	base := interdomain.New(net)
	// Downing link 1—2 cuts 0 from 3 and its host with no alternative;
	// convergence still happens but there is no path, so the flow stalls
	// to the end.
	script := &faults.Script{Events: []faults.Event{
		{At: des.Millisecond, Kind: faults.LinkDown, Link: 1, ConvergeNS: 100_000},
	}}
	fp, err := faults.NewPlane(net, base, script)
	if err != nil {
		t.Fatal(err)
	}
	end := des.Time(20 * des.Millisecond)
	p, err := Build(Config{Net: net, Routes: base, Faults: fp, End: end}, []Flow{
		{Src: 0, Dst: h, Bytes: 5_000_000, Chain: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Completion(0) != 0 {
		t.Fatalf("flow completed at %v across a partition", p.Completion(0))
	}
	if got := int64(end - des.Millisecond); p.flows[0].stallNS != got {
		t.Fatalf("stallNS = %d, want %d (cut at 1 ms, stalled to the horizon)", p.flows[0].stallNS, got)
	}
	// Partial delivery: only what transferred before the cut.
	if pb := p.PayloadBits(0); pb <= 0 || pb >= 5_000_000*8 {
		t.Fatalf("partial PayloadBits = %v", pb)
	}
}

func TestChainedFlows(t *testing.T) {
	net := lineNet(t)
	// Chain 0: a request 0→3 whose completion triggers a response 3→0,
	// mimicking one HTTP exchange.
	spawned := 0
	cfg := Config{
		Net: net, Routes: routes(net), End: des.Second,
		Next: func(chain int32, at des.Time) (Flow, bool) {
			if chain != 0 || spawned > 0 {
				return Flow{}, false
			}
			spawned++
			return Flow{Src: 3, Dst: 0, Bytes: 200_000, Start: at, Chain: 0}, true
		},
	}
	p, err := Build(cfg, []Flow{{Src: 0, Dst: 3, Bytes: 1_000, Start: 0, Chain: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumFlows() != 2 {
		t.Fatalf("NumFlows = %d, want 2 (request + chained response)", p.NumFlows())
	}
	resp := p.Flow(1)
	if resp.Src != 3 || resp.Dst != 0 || resp.Start != p.Completion(0) {
		t.Fatalf("chained flow = %+v, want 3→0 starting at %v", resp, p.Completion(0))
	}
	if p.Completion(1) <= p.Completion(0) {
		t.Fatalf("response completed at %v, not after the request's %v", p.Completion(1), p.Completion(0))
	}
}

func TestRateAtCursorMatchesStateless(t *testing.T) {
	net := lineNet(t)
	flows := []Flow{
		{Src: 0, Dst: 3, Bytes: 900_000, Start: 0, Chain: -1},
		{Src: 1, Dst: 3, Bytes: 500_000, Start: des.Millisecond, Chain: -1},
		{Src: 2, Dst: 3, Bytes: 300_000, Start: 2 * des.Millisecond, Chain: -1},
	}
	p, err := Build(Config{Net: net, Routes: routes(net), End: des.Second}, flows)
	if err != nil {
		t.Fatal(err)
	}
	var cursor int32
	for now := des.Time(0); now < 30*des.Millisecond; now += 100_000 {
		want := p.RateAt(4, now, nil)
		if got := p.RateAt(4, now, &cursor); got != want {
			t.Fatalf("RateAt(dir 4, %v) with cursor = %v, stateless = %v", now, got, want)
		}
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	net := lineNet(t)
	r := routes(net)
	if _, err := Build(Config{Routes: r, End: des.Second}, nil); err == nil {
		t.Fatal("accepted a nil network")
	}
	if _, err := Build(Config{Net: net, Routes: r}, nil); err == nil {
		t.Fatal("accepted a zero horizon")
	}
	if _, err := Build(Config{Net: net, Routes: r, End: des.Second, Quantum: -1}, nil); err == nil {
		t.Fatal("accepted a negative quantum")
	}
	if _, err := Build(Config{Net: net, Routes: r, End: des.Second},
		[]Flow{{Src: 0, Dst: 99}}); err == nil {
		t.Fatal("accepted endpoints outside the network")
	}
	if _, err := Build(Config{Net: net, Routes: r, End: des.Second},
		[]Flow{{Src: 0, Dst: 1, Bytes: -1}}); err == nil {
		t.Fatal("accepted a negative flow size")
	}
}

// A transfer small enough for slow start to cover entirely completes at
// its admission instant — slow start delivered every byte, so the fluid
// phase has nothing left and must not re-transfer the payload.
func TestSlowStartCoversShortFlow(t *testing.T) {
	net := lineNet(t)
	cfg := Config{Net: net, Routes: routes(net), End: des.Second}
	p, err := Build(cfg, []Flow{{Src: 0, Dst: 2, Bytes: 2 * 1460, Chain: -1}})
	if err != nil {
		t.Fatal(err)
	}
	admit := p.flows[0].admit
	if admit == 0 {
		t.Fatal("expected a nonzero startup delay")
	}
	if got := p.Completion(0); got != admit {
		t.Fatalf("Completion = %v, want the admission instant %v", got, admit)
	}
	if got := p.PayloadBits(0); got != 2*1460*8 {
		t.Fatalf("PayloadBits = %v, want %v", got, 2*1460*8)
	}
	// The slow-start lump still shows up as carried wire volume.
	if got := p.DirBits(0); got <= 0 {
		t.Fatalf("DirBits(0) = %v, want > 0", got)
	}
	// But never as a sustained rate the packet side would see.
	if r := p.RateAt(0, admit/2, nil); r != 0 {
		t.Fatalf("slow-start phase RateAt = %v, want 0", r)
	}
}

func TestZeroByteAndSelfFlows(t *testing.T) {
	net := lineNet(t)
	p, err := Build(Config{Net: net, Routes: routes(net), End: des.Second}, []Flow{
		{Src: 0, Dst: 0, Bytes: 1_000, Start: des.Millisecond, Chain: -1},
		{Src: 0, Dst: 3, Bytes: 0, Start: des.Millisecond, Chain: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Loopback completes instantly; a zero-byte flow costs one startup
	// delay and no bandwidth.
	if got := p.Completion(0); got != des.Millisecond {
		t.Fatalf("loopback completion = %v, want 1 ms", got)
	}
	if got := p.Completion(1); got != p.flows[1].admit || got <= des.Millisecond {
		t.Fatalf("zero-byte completion = %v, admit %v", got, p.flows[1].admit)
	}
	for d := 0; d < 6; d++ {
		if p.DirBits(d) != 0 {
			t.Fatalf("dir %d carried %v bits for degenerate flows", d, p.DirBits(d))
		}
	}
}

func TestFaultsBoundariesFeedRecompute(t *testing.T) {
	net, l01 := ringNet(t)
	base := interdomain.New(net)
	script := &faults.Script{Events: []faults.Event{
		{At: des.Millisecond, Kind: faults.LinkDown, Link: l01, ConvergeNS: 250_000},
		{At: 3 * des.Millisecond, Kind: faults.LinkUp, Link: l01, ConvergeNS: 250_000},
	}}
	fp, err := faults.NewPlane(net, base, script)
	if err != nil {
		t.Fatal(err)
	}
	got := fp.Boundaries()
	want := []des.Time{
		des.Millisecond, des.Millisecond + 250_000,
		3 * des.Millisecond, 3*des.Millisecond + 250_000,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Boundaries() = %v, want %v", got, want)
	}
}
