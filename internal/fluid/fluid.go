// Package fluid is the flow-level half of the hybrid fidelity model:
// bulk transfers are not packetized but solved analytically, per
// link-share epoch, into max-min fair-share rates (Narses-style fluid
// abstraction). The entire fluid timeline — per-flow completion times,
// per-directed-link piecewise-constant rate segments, per-link carried
// bits — is precomputed at setup into an immutable Plane whose every
// query is a pure function of simulated time. That is what keeps hybrid
// runs byte-identical across engine counts and distributed workers: an
// online in-kernel solver would couple rate updates to the barrier
// window, making results depend on the partition; a replicated
// precomputed plane cannot.
//
// The packet side consumes the Plane two ways: foreground packets see
// the fluid load as reduced effective link bandwidth (netsim.transmit),
// and each fluid completion is materialized as one kernel event on the
// flow source's engine so fluid traffic is visible in the event stream
// and per-node load profiles. The deviation of the fluid model from the
// packet-level reference is not assumed — cmd/simcheck -fluid measures
// it per seeded scenario and enforces the documented error budget.
package fluid

import (
	"fmt"
	"math"
	"sort"

	"massf/internal/des"
	"massf/internal/model"
)

// Reference TCP framing mirrored from netsim/tcp.go: fluid flows load
// links with wire bits (payload plus per-segment header overhead) so link
// utilization stays comparable to the packet model, which counts headers.
const (
	mssBytes    = 1460
	headerBytes = 40
	maxHops     = 64 // path-walk loop bound, mirrors netsim.DefaultTTL
)

var wireOverhead = float64(mssBytes+headerBytes) / float64(mssBytes)

// Routes resolves static hop-by-hop forwarding (structurally identical to
// netsim.Routes; declared here so netsim can depend on fluid without a
// cycle).
type Routes interface {
	NextLink(cur, dst model.NodeID) model.LinkID
}

// FaultView is what the fluid solver needs from a fault plane: epoch
// boundaries at which rates must be recomputed and paths re-resolved,
// plus time-aware forwarding and element state. faults.Plane implements
// it. Every method must be a pure function of simulated time.
type FaultView interface {
	// Boundaries returns every time the routing regime or any element's
	// physical state changes, sorted ascending (duplicates allowed).
	Boundaries() []des.Time
	NextLink(now des.Time, cur, dst model.NodeID) model.LinkID
	LinkUp(now des.Time, lid model.LinkID) (bool, int)
	NodeUp(now des.Time, n model.NodeID) (bool, int)
}

// Flow is one analytic bulk transfer: Bytes of payload from Src to Dst,
// requested at Start. Chain tags the flow as one step of a closed-loop
// chain and is only meaningful when Config.Next is non-nil.
type Flow struct {
	Src, Dst model.NodeID
	Bytes    int64
	Start    des.Time
	Chain    int32
}

// Config configures a fluid plane build.
type Config struct {
	// Net is the virtual network (required).
	Net *model.Network
	// Routes is the static forwarding function (required). The solver
	// walks whole paths, which a slice-scoped router refuses, so a
	// distributed worker passes an unscoped router here.
	Routes Routes
	// Faults, when non-nil, makes the fluid timeline fault-aware: flows
	// re-resolve paths at every boundary, stall while their path crosses
	// a dead element, and reroute when post-fault routes take effect.
	Faults FaultView
	// End is the simulated horizon (required).
	End des.Time
	// Quantum > 0 batches rate recomputation onto a time grid instead of
	// recomputing at every flow start/finish — the scale knob for
	// million-flow workloads. Completions are still recorded at their
	// exact solved times; the approximation (a flow admitted mid-quantum
	// transfers nothing until the next grid point, a finished flow's rate
	// is not redistributed until then) is bounded by the quantum and
	// covered by the simcheck error budget. 0 recomputes exactly.
	Quantum des.Time
	// Next, when non-nil, drives closed-loop chains: called when a flow
	// with Chain ≥ 0 completes at time at, it may return the chain's next
	// flow (Start is clamped to ≥ at). This runs at build time, so the
	// callback must be deterministic.
	Next func(chain int32, at des.Time) (Flow, bool)
}

// Segment is one piece of a directed link's piecewise-constant fluid
// rate timeline: Rate (wire bits/s) holds from At until the next segment.
type Segment struct {
	At   des.Time
	Rate float64
}

// flowRec is one flow's immutable build result.
type flowRec struct {
	src, dst model.NodeID
	bytes    int64
	start    des.Time // request time
	admit    des.Time // start + modeled latency/slow-start startup delay
	done     des.Time // completion (0 = not completed by End)
	bits     float64  // wire bits the fluid phase transferred by min(done, End)
	ssBytes  int64    // payload delivered during the (possibly truncated) slow-start phase
	stallNS  int64    // time spent with a dead or missing path
	chain    int32
}

// dirState is one directed link's fluid timeline.
type dirState struct {
	segs []Segment
	bits float64 // total wire bits carried in [0, End)
}

// Plane is the immutable result of Build. All methods are safe for
// concurrent use.
type Plane struct {
	end     des.Time
	quantum des.Time
	flows   []flowRec
	dirs    []dirState
}

// ---- build ----

// ev is one builder event: a flow arrival, admission, or completion.
type ev struct {
	at  des.Time
	fi  int32
	gen uint32
}

// evHeap is a binary min-heap ordered by (at, fi) — fi breaks ties so pop
// order never depends on push order.
type evHeap []ev

func (h *evHeap) push(e ev) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].at < s[i].at || (s[p].at == s[i].at && s[p].fi <= s[i].fi) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *evHeap) pop() ev {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && (s[l].at < s[m].at || (s[l].at == s[m].at && s[l].fi < s[m].fi)) {
			m = l
		}
		if r < n && (s[r].at < s[m].at || (s[r].at == s[m].at && s[r].fi < s[m].fi)) {
			m = r
		}
		if m == i {
			return top
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}

// group is the dynamic state of all active flows sharing one (src, dst)
// pair — identical paths, so the solver prices them as one demand.
type group struct {
	key   uint64
	path  []int32 // directed-link indices; nil = blackholed (no live path)
	flows []int32
	rate  float64 // per-flow rate assigned at the last recompute
}

type flowDyn struct {
	rem  float64 // wire bits remaining
	rate float64 // current per-flow rate (wire bits/s)
	gen  uint32  // completion-heap entry validity
}

type builder struct {
	cfg  Config
	caps []float64 // per dir: link bandwidth (wire bits/s)

	flows []flowRec
	dyn   []flowDyn

	groups   []*group // sorted by key: canonical float-summation order
	groupIdx map[uint64]*group
	active   int // flows admitted and not yet done

	arr, adm, comp evHeap
	bounds         []des.Time
	bi             int

	lastRT  des.Time
	dirty   bool
	gridAt  des.Time // next quantum recompute (quantum mode, when dirty)
	curLoad map[int32]float64
	dirs    []dirState
	scratch map[int32]float64
	rates   []float64
	demands []Demand
	dgroups []*group
}

func pairKey(src, dst model.NodeID) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(dst))
}

// Build solves the whole fluid workload against the network and returns
// the immutable plane. flows may arrive in any order; results are
// indexed by the order flows were supplied (chain-spawned flows append
// after the initial set, in completion order — deterministic).
func Build(cfg Config, flows []Flow) (*Plane, error) {
	if cfg.Net == nil || cfg.Routes == nil {
		return nil, fmt.Errorf("fluid: Net and Routes are required")
	}
	if cfg.End <= 0 {
		return nil, fmt.Errorf("fluid: End must be positive")
	}
	if cfg.Quantum < 0 {
		return nil, fmt.Errorf("fluid: Quantum must be ≥ 0")
	}
	b := &builder{
		cfg:      cfg,
		caps:     make([]float64, 2*len(cfg.Net.Links)),
		groupIdx: make(map[uint64]*group),
		curLoad:  make(map[int32]float64),
		dirs:     make([]dirState, 2*len(cfg.Net.Links)),
		scratch:  make(map[int32]float64),
	}
	for i := range cfg.Net.Links {
		bw := float64(cfg.Net.Links[i].Bandwidth)
		b.caps[2*i], b.caps[2*i+1] = bw, bw
	}
	if cfg.Faults != nil {
		all := cfg.Faults.Boundaries()
		for _, t := range all {
			if t > 0 && t < cfg.End {
				b.bounds = append(b.bounds, t)
			}
		}
		sort.Slice(b.bounds, func(i, j int) bool { return b.bounds[i] < b.bounds[j] })
		// dedupe
		out := b.bounds[:0]
		for _, t := range b.bounds {
			if len(out) == 0 || out[len(out)-1] != t {
				out = append(out, t)
			}
		}
		b.bounds = out
	}
	for i := range flows {
		if err := b.addFlow(flows[i]); err != nil {
			return nil, err
		}
	}
	b.run()
	b.settleAll(cfg.End)
	return &Plane{end: cfg.End, quantum: cfg.Quantum, flows: b.flows, dirs: b.dirs}, nil
}

func (b *builder) addFlow(f Flow) error {
	nodes := len(b.cfg.Net.Nodes)
	if int(f.Src) < 0 || int(f.Src) >= nodes || int(f.Dst) < 0 || int(f.Dst) >= nodes {
		return fmt.Errorf("fluid: flow %d endpoints (%d→%d) outside network", len(b.flows), f.Src, f.Dst)
	}
	if f.Bytes < 0 {
		return fmt.Errorf("fluid: flow %d has negative size", len(b.flows))
	}
	if f.Start < 0 {
		f.Start = 0
	}
	fi := int32(len(b.flows))
	b.flows = append(b.flows, flowRec{
		src: f.Src, dst: f.Dst, bytes: f.Bytes, start: f.Start, chain: f.Chain,
	})
	b.dyn = append(b.dyn, flowDyn{})
	if f.Start < b.cfg.End {
		b.arr.push(ev{at: f.Start, fi: fi})
	}
	return nil
}

// pathAt walks the forwarding function in force at time t from src to
// dst. nil means no live path: no route, a loop, or a dead element on the
// way — the fluid flow stalls until the next boundary re-resolves it.
func (b *builder) pathAt(t des.Time, src, dst model.NodeID) []int32 {
	fv := b.cfg.Faults
	if fv != nil {
		if up, _ := fv.NodeUp(t, src); !up {
			return nil
		}
		if up, _ := fv.NodeUp(t, dst); !up {
			return nil
		}
	}
	cur := src
	var path []int32
	for hops := 0; cur != dst; hops++ {
		if hops >= maxHops {
			return nil
		}
		var lid model.LinkID
		if fv != nil {
			lid = fv.NextLink(t, cur, dst)
		} else {
			lid = b.cfg.Routes.NextLink(cur, dst)
		}
		if lid < 0 {
			return nil
		}
		if fv != nil {
			if up, _ := fv.LinkUp(t, lid); !up {
				return nil
			}
		}
		l := &b.cfg.Net.Links[lid]
		d := 2 * int32(lid)
		if l.B == cur {
			d++
		}
		next := l.Other(cur)
		if fv != nil && next != dst {
			if up, _ := fv.NodeUp(t, next); !up {
				return nil
			}
		}
		path = append(path, d)
		cur = next
	}
	return path
}

// startup models the latency-bound slow-start phase a packet-level TCP
// flow spends before its throughput is rate-limited: rounds from the
// reference TCP's initial window, each costing one path round-trip and
// delivering its whole congestion window. Doubling stops when the window
// reaches the path's bandwidth-delay product — from there the flow
// streams continuously and its remaining bytes belong to the fluid
// solver — or when the cumulative windows cover the transfer (the flow
// never leaves slow start). Returns the delay and the payload bytes
// delivered during it; the fluid transfer carries only the remainder, so
// slow-start-dominated transfers are not double-counted. This is what
// keeps fluid FCTs comparable to packet FCTs on latency-dominated paths
// — without the delay a 100 KB flow on an idle 1 Gbps path would
// "complete" in under a millisecond where real TCP needs six round
// trips.
func (b *builder) startup(path []int32, bytes int64) (delay des.Time, delivered, rtt int64) {
	bottleneck := math.Inf(1)
	for _, d := range path {
		l := &b.cfg.Net.Links[d/2]
		rtt += 2 * l.Latency
		if bw := float64(l.Bandwidth); bw < bottleneck {
			bottleneck = bw
		}
	}
	segs := (bytes + mssBytes - 1) / mssBytes
	if segs < 1 {
		segs = 1
	}
	bdpBits := bottleneck * float64(rtt) / float64(des.Second)
	cum, cwnd, rounds := int64(0), int64(2), int64(0)
	for cum < segs && rounds < 40 {
		if float64(cwnd)*mssBytes*8 >= bdpBits {
			break // window fills the pipe: network-limited from here on
		}
		cum += cwnd
		cwnd *= 2
		rounds++
	}
	if cum > segs {
		cum = segs
	}
	delivered = cum * mssBytes
	if delivered > bytes {
		delivered = bytes
	}
	return des.Time(rounds * rtt), delivered, rtt
}

// ssDelivered is the payload a slow-starting flow has delivered after
// `rounds` full round trips: the cumulative doubling windows from the
// initial window of 2, capped at the transfer size.
func ssDelivered(rounds, bytes int64) int64 {
	if rounds <= 0 {
		return 0
	}
	if rounds > 40 {
		rounds = 40
	}
	delivered := ((int64(1) << (rounds + 1)) - 2) * mssBytes
	if delivered > bytes {
		delivered = bytes
	}
	return delivered
}

func wireBits(bytes int64) float64 {
	return math.Ceil(float64(bytes) * 8 * wireOverhead)
}

// run is the build-time event loop: arrivals schedule admissions after
// the startup delay, admissions join pair groups, the solver recomputes
// max-min rates at every state change (or on the quantum grid), and
// completions pop exactly when a flow's remaining wire bits hit zero
// under the piecewise-constant rates.
func (b *builder) run() {
	end := b.cfg.End
	for {
		t := b.nextEventTime()
		if t < 0 || t >= end {
			return
		}
		// Boundaries that elapsed while no flow was active changed nothing;
		// skip them so they cannot register as past events later.
		for b.bi < len(b.bounds) && b.bounds[b.bi] < t {
			b.bi++
		}
		boundary := false
		for progressed := true; progressed; {
			progressed = false
			for len(b.comp) > 0 && b.comp[0].at <= t {
				e := b.comp.pop()
				if e.gen != b.dyn[e.fi].gen || b.flows[e.fi].done != 0 {
					continue // stale entry from a superseded rate epoch
				}
				b.complete(e.fi, e.at)
				progressed = true
			}
			for len(b.arr) > 0 && b.arr[0].at <= t {
				e := b.arr.pop()
				b.arrival(e.fi, e.at)
				progressed = true
			}
			for len(b.adm) > 0 && b.adm[0].at <= t {
				e := b.adm.pop()
				b.admit(e.fi, e.at)
				progressed = true
			}
		}
		if b.bi < len(b.bounds) && b.bounds[b.bi] == t {
			b.bi++
			boundary = true
			b.reresolve(t)
		}
		if b.dirty {
			if b.cfg.Quantum == 0 || boundary || t >= b.gridAt {
				b.recompute(t)
			}
		}
	}
}

// nextEventTime is the earliest pending event, or -1 when the build is
// drained. Stale completion entries are skipped so they cannot stall the
// clock.
func (b *builder) nextEventTime() des.Time {
	for len(b.comp) > 0 {
		e := b.comp[0]
		if e.gen == b.dyn[e.fi].gen && b.flows[e.fi].done == 0 {
			break
		}
		b.comp.pop()
	}
	t := des.Time(-1)
	consider := func(at des.Time) {
		if t < 0 || at < t {
			t = at
		}
	}
	if len(b.arr) > 0 {
		consider(b.arr[0].at)
	}
	if len(b.adm) > 0 {
		consider(b.adm[0].at)
	}
	if len(b.comp) > 0 {
		consider(b.comp[0].at)
	}
	if b.active > 0 && b.bi < len(b.bounds) {
		consider(b.bounds[b.bi])
	}
	if b.dirty && b.cfg.Quantum > 0 {
		consider(b.gridAt)
	}
	return t
}

// markDirty notes a rate-relevant state change at time t and, in quantum
// mode, schedules the grid recompute that will absorb it.
func (b *builder) markDirty(t des.Time) {
	if q := b.cfg.Quantum; q > 0 {
		g := (t + q - 1) / q * q
		if !b.dirty || g < b.gridAt {
			b.gridAt = g
		}
	}
	b.dirty = true
}

// arrival resolves the flow's startup delay and schedules its admission.
// Slow-start-delivered wire bits are charged to the arrival path as a
// lump (their instantaneous footprint is a handful of in-flight
// segments, never a sustained rate the solver should see).
func (b *builder) arrival(fi int32, t des.Time) {
	rec := &b.flows[fi]
	wb := wireBits(rec.bytes)
	if rec.src == rec.dst {
		rec.admit, rec.done, rec.bits = t, t, wb
		b.chainNext(fi, t)
		return
	}
	path := b.pathAt(t, rec.src, rec.dst)
	var d des.Time
	var ssBytes, rtt int64
	if path != nil {
		d, ssBytes, rtt = b.startup(path, rec.bytes)
	}
	rec.admit = t + d
	if rec.admit >= b.cfg.End {
		// Slow start is truncated by the horizon: credit only the round
		// trips that fit (the packet reference keeps delivering windows
		// until the horizon too, and the link-volume budget compares them).
		ssBytes = 0
		if rtt > 0 {
			ssBytes = ssDelivered(int64(b.cfg.End-t)/rtt, rec.bytes)
		}
	}
	rec.ssBytes = ssBytes
	if path != nil {
		if ssWire := wireBits(ssBytes); ssWire > 0 {
			for _, dir := range path {
				b.dirs[dir].bits += ssWire
			}
		}
	}
	if rec.admit < b.cfg.End {
		b.adm.push(ev{at: rec.admit, fi: fi})
	}
}

// admit joins the flow to its pair group (creating it against the
// current routing regime) with zero rate until the next recompute. Only
// the bytes slow start did not already deliver enter the fluid transfer.
func (b *builder) admit(fi int32, t des.Time) {
	rec := &b.flows[fi]
	wb := wireBits(rec.bytes - rec.ssBytes)
	if wb <= 0 {
		rec.done, rec.bits = t, wireBits(rec.ssBytes)
		b.chainNext(fi, t)
		return
	}
	b.dyn[fi] = flowDyn{rem: wb, gen: b.dyn[fi].gen + 1}
	key := pairKey(rec.src, rec.dst)
	g := b.groupIdx[key]
	if g == nil {
		g = &group{key: key, path: b.pathAt(t, rec.src, rec.dst)}
		b.groupIdx[key] = g
		i := sort.Search(len(b.groups), func(i int) bool { return b.groups[i].key >= key })
		b.groups = append(b.groups, nil)
		copy(b.groups[i+1:], b.groups[i:])
		b.groups[i] = g
	}
	g.flows = append(g.flows, fi)
	b.active++
	b.markDirty(t)
}

// complete finalizes a flow at its exact solved completion time and
// spawns its chain successor.
func (b *builder) complete(fi int32, t des.Time) {
	rec := &b.flows[fi]
	d := &b.dyn[fi]
	// Settle this flow's tail segment [lastRT, t) onto its path; the rest
	// of its bits were accounted at earlier recomputes.
	key := pairKey(rec.src, rec.dst)
	g := b.groupIdx[key]
	dt := float64(t-b.lastRT) / float64(des.Second)
	if g != nil && g.path != nil && d.rate > 0 && dt > 0 {
		for _, dir := range g.path {
			b.dirs[dir].bits += d.rate * dt
		}
	}
	rec.done = t
	rec.bits = wireBits(rec.bytes - rec.ssBytes)
	d.rem, d.rate = 0, 0
	d.gen++
	if g != nil {
		for i, f := range g.flows {
			if f == fi {
				g.flows = append(g.flows[:i], g.flows[i+1:]...)
				break
			}
		}
		if len(g.flows) == 0 {
			delete(b.groupIdx, key)
			i := sort.Search(len(b.groups), func(i int) bool { return b.groups[i].key >= key })
			b.groups = append(b.groups[:i], b.groups[i+1:]...)
		}
	}
	b.active--
	b.markDirty(t)
	b.chainNext(fi, t)
}

// chainNext asks the closed-loop callback for the chain's next flow.
func (b *builder) chainNext(fi int32, t des.Time) {
	rec := &b.flows[fi]
	if b.cfg.Next == nil || rec.chain < 0 {
		return
	}
	nf, ok := b.cfg.Next(rec.chain, t)
	if !ok {
		return
	}
	if nf.Start < t {
		nf.Start = t
	}
	// Errors cannot happen for well-formed callbacks; a malformed flow is
	// dropped rather than failing a build that is already half-solved.
	_ = b.addFlow(nf)
}

// reresolve re-walks every active group's path under the routing regime
// now in force (a fault boundary). The elapsed interval settles first —
// under the OLD paths — so stall time is attributed to the regime in
// which it accrued.
func (b *builder) reresolve(t des.Time) {
	b.settle(t)
	b.lastRT = t
	for _, g := range b.groups {
		g.path = b.pathAt(t, model.NodeID(g.key>>32), model.NodeID(uint32(g.key)))
	}
	if b.active > 0 {
		b.markDirty(t)
	}
}

// settle advances every active flow to time t under the current rates:
// remaining bits decrease, carried bits accrue per directed link, and
// blackholed flows accumulate stall time.
func (b *builder) settle(t des.Time) {
	dt := float64(t-b.lastRT) / float64(des.Second)
	if dt <= 0 {
		return
	}
	stall := int64(t - b.lastRT)
	for _, g := range b.groups {
		var sum float64
		for _, fi := range g.flows {
			d := &b.dyn[fi]
			if d.rate > 0 {
				d.rem -= d.rate * dt
				if d.rem < 0 {
					d.rem = 0
				}
				sum += d.rate
			} else if g.path == nil {
				b.flows[fi].stallNS += stall
			}
		}
		if g.path != nil && sum > 0 {
			for _, dir := range g.path {
				b.dirs[dir].bits += sum * dt
			}
		}
	}
}

// recompute settles to t, re-solves max-min rates over the active
// groups, reschedules completions, and extends the per-dir rate
// timelines where the load changed.
func (b *builder) recompute(t des.Time) {
	b.settle(t)
	b.demands = b.demands[:0]
	b.dgroups = b.dgroups[:0]
	for _, g := range b.groups {
		if g.path == nil || len(g.flows) == 0 {
			g.rate = 0
			continue
		}
		b.demands = append(b.demands, Demand{Path: g.path, Weight: len(g.flows)})
		b.dgroups = append(b.dgroups, g)
	}
	b.rates = FairShare(b.caps, b.demands, b.rates)
	for i, g := range b.dgroups {
		g.rate = b.rates[i]
	}
	end := b.cfg.End
	for _, g := range b.groups {
		for _, fi := range g.flows {
			d := &b.dyn[fi]
			d.rate = g.rate
			d.gen++
			if g.rate <= 0 {
				continue
			}
			tc := t + des.Time(math.Ceil(d.rem/g.rate*float64(des.Second)))
			if tc <= t {
				tc = t + 1
			}
			if tc < end {
				b.comp.push(ev{at: tc, fi: fi, gen: d.gen})
			}
		}
	}
	// Extend rate timelines where the per-dir load changed. Loads are
	// summed in group-key order (b.groups is sorted), so the float values
	// are independent of arrival order and identical on every worker.
	for _, g := range b.groups {
		if g.path == nil || g.rate <= 0 {
			continue
		}
		load := g.rate * float64(len(g.flows))
		for _, dir := range g.path {
			b.scratch[dir] += load
		}
	}
	for dir, load := range b.scratch {
		if b.curLoad[dir] != load {
			b.dirs[dir].segs = append(b.dirs[dir].segs, Segment{At: t, Rate: load})
			b.curLoad[dir] = load
		}
	}
	// Dirs that lost all fluid load this epoch drop to zero.
	for dir := range b.curLoad {
		if _, ok := b.scratch[dir]; !ok {
			b.dirs[dir].segs = append(b.dirs[dir].segs, Segment{At: t, Rate: 0})
			delete(b.curLoad, dir)
		}
	}
	for dir := range b.scratch {
		delete(b.scratch, dir)
	}
	b.lastRT = t
	b.dirty = false
}

// settleAll closes the build at the horizon: remaining active flows keep
// their last rates until End and record partial bits.
func (b *builder) settleAll(end des.Time) {
	b.settle(end)
	for _, g := range b.groups {
		for _, fi := range g.flows {
			rec := &b.flows[fi]
			rec.bits = wireBits(rec.bytes-rec.ssBytes) - b.dyn[fi].rem
			if rec.bits < 0 {
				rec.bits = 0
			}
		}
	}
	for dir := range b.curLoad {
		b.dirs[dir].segs = append(b.dirs[dir].segs, Segment{At: end, Rate: 0})
	}
}

// ---- queries ----

// NumFlows returns the total flow count, chain-spawned flows included.
func (p *Plane) NumFlows() int { return len(p.flows) }

// Flow returns flow i's request (endpoints, size, request time, chain).
func (p *Plane) Flow(i int) Flow {
	r := &p.flows[i]
	return Flow{Src: r.src, Dst: r.dst, Bytes: r.bytes, Start: r.start, Chain: r.chain}
}

// Completion returns when flow i finished delivering, or 0 if it did not
// complete within the horizon.
func (p *Plane) Completion(i int) des.Time { return p.flows[i].done }

// PayloadBits returns the payload bits flow i delivered within the
// horizon: its full size once completed, otherwise the slow-start
// delivery plus the pro-rated fluid partial.
func (p *Plane) PayloadBits(i int) float64 {
	r := &p.flows[i]
	if r.done != 0 {
		return float64(r.bytes) * 8
	}
	got := float64(r.ssBytes)*8 + r.bits/wireOverhead
	if max := float64(r.bytes) * 8; got > max {
		return max
	}
	return got
}

// Started reports whether flow i's request falls within the horizon.
func (p *Plane) Started(i int) bool { return p.flows[i].start < p.end }

// RateAt returns the total fluid load (wire bits/s) on directed link dir
// at time now. cursor, when non-nil, caches the segment index between
// calls from a context whose now never decreases (netsim's per-linkDir
// state, owned by one engine) for O(1) amortized lookup; the result is a
// pure function of (dir, now) regardless.
func (p *Plane) RateAt(dir int, now des.Time, cursor *int32) float64 {
	segs := p.dirs[dir].segs
	if len(segs) == 0 || now < segs[0].At {
		return 0
	}
	i := 0
	if cursor != nil {
		i = int(*cursor)
		if i >= len(segs) || segs[i].At > now {
			i = 0
		}
	}
	if i == 0 && len(segs) > 8 {
		i = sort.Search(len(segs), func(j int) bool { return segs[j].At > now }) - 1
	}
	for i+1 < len(segs) && segs[i+1].At <= now {
		i++
	}
	if cursor != nil {
		*cursor = int32(i)
	}
	return segs[i].Rate
}

// DirBits returns the total wire bits the fluid plane carried on
// directed link dir within the horizon.
func (p *Plane) DirBits(dir int) float64 { return p.dirs[dir].bits }

// DirSegments returns dir's rate timeline (shared slice; read-only).
func (p *Plane) DirSegments(dir int) []Segment { return p.dirs[dir].segs }

// Quantum returns the rate-epoch quantum the plane was solved with.
func (p *Plane) Quantum() des.Time { return p.quantum }
