// Package netmon is the network-domain observability plane: where
// internal/telemetry watches the *simulator* (engines, windows, barriers),
// netmon watches the *simulated network* — per-link windowed time series
// (utilization, queue high-water, drops split by cause), per-flow TCP
// records (SRTT/cwnd trajectory, retransmits, first-byte and completion
// times, goodput) with a flow-completion-time histogram, and deterministic
// sampled packet-path traces whose hop spans stitch across distributed
// workers into end-to-end paths.
//
// A nil *Mon disables everything: netsim pays one nil check per record
// point. When enabled, the hot-path hooks are a few atomic operations on
// fixed arrays indexed by absolute simulated time, so concurrent engines
// (and replicated distributed workers) produce identical final series
// regardless of interleaving, and HTTP handlers may read them while the
// run is live without races.
//
// Observation is provably inert: attaching a Mon must not change the
// simulated event stream. simcheck's observer-neutrality dimension diffs
// every partition-independent observable of an instrumented run against an
// uninstrumented one (sequential and distributed) and requires them
// byte-identical.
package netmon

import (
	"sort"
	"sync"
	"sync/atomic"

	"massf/internal/des"
	"massf/internal/model"
	"massf/internal/telemetry"
)

// DropCause classifies a packet loss for the per-link drop series.
type DropCause uint8

const (
	// DropTail is a queue-overflow loss at the transmitting direction.
	DropTail DropCause = iota
	// DropNoRoute is a packet with no forwarding entry toward its
	// destination.
	DropNoRoute
	// DropTTL is a hop-limit expiry (forwarding loop protection).
	DropTTL
	// DropFault is a loss attributed to the scripted fault plane (dead
	// link or node).
	DropFault

	numCauses
)

// String names the cause the way reports spell it.
func (c DropCause) String() string {
	switch c {
	case DropTail:
		return "tail"
	case DropNoRoute:
		return "no-route"
	case DropTTL:
		return "ttl"
	case DropFault:
		return "fault"
	}
	return "unknown"
}

// Bounds of a Mon: the bucketed series divide [0, Horizon) into buckets
// equal windows per link direction; at most maxFlows per-flow records are
// kept (later flows are counted in Summary().FlowOverflow but not
// recorded), and at most maxSpans hop spans (excess spans are counted in
// Summary().SpanOverflow and discarded).
const (
	buckets  = 64
	maxFlows = 8192
	maxSpans = 65536
)

// Options configures a Mon. Links and Horizon are required.
type Options struct {
	// Links is the number of links in the simulated network (series are
	// kept per link DIRECTION, 2×Links).
	Links int
	// Horizon is the simulated end time; the bucketed series divide
	// [0, Horizon) into 64 equal windows.
	Horizon des.Time
	// SampleEvery is the packet-path sampling stride k: a packet is
	// traced when its identity hash ≡ 0 (mod k). 0 disables path tracing
	// entirely. Sampling is a pure function of packet identity, never of
	// execution order, so the sampled set is identical across partitions
	// and worker counts.
	SampleEvery int
	// Bandwidths, when non-nil, holds each link's bandwidth in bits/s and
	// enables utilization figures in LinkReport.
	Bandwidths []int64
}

// Mon is one run's network observability plane. All record methods are
// safe for concurrent use by the engine goroutines; all report methods are
// safe to call while the run is live.
type Mon struct {
	links      int
	bucketNS   int64
	sample     uint64
	horizon    des.Time
	bandwidths []int64

	// Per-link-direction bucketed series, flat arrays indexed
	// [dir*buckets + bucket] and written with atomics: adds commute and
	// the max CAS is order-free, so the final values are deterministic
	// under any engine interleaving.
	bits  []uint64            // bits put on the wire, per bucket
	qmax  []int64             // high-water queueing delay (ns), per bucket
	drops [numCauses][]uint64 // losses per cause, per bucket
	total [numCauses]uint64   // per-cause totals (includes unattributed)

	flowMu       sync.Mutex
	flows        []*FlowRec
	flowOverflow uint64
	maxFlows     int

	fct fctHist

	// Fluid-plane views, folded in post-run by netsim from the precomputed
	// rate timelines and slow-start lumps (EnsureFluid/AddFluidBits/
	// AddFluidLump/FluidFCT) while the run still reports live, so
	// published and written with atomics like the packet series; nil
	// fluidBits means the run had no fluid plane.
	fluidBits atomic.Pointer[[]uint64] // dir*buckets + bucket, wire bits
	fluidFct  fctHist

	spanMu       sync.Mutex
	spans        []HopSpan
	spanOverflow uint64
	maxSpans     int

	stream *telemetry.Ring[FlowSnapshot] // completed flows, live
}

// New builds a Mon for a run with the given shape.
func New(o Options) *Mon {
	bucketNS := (int64(o.Horizon) + buckets - 1) / buckets
	if bucketNS <= 0 {
		bucketNS = 1
	}
	dirs := 2 * o.Links
	m := &Mon{
		links:      o.Links,
		bucketNS:   bucketNS,
		sample:     uint64(max(o.SampleEvery, 0)),
		horizon:    o.Horizon,
		bandwidths: o.Bandwidths,
		bits:       make([]uint64, dirs*buckets),
		qmax:       make([]int64, dirs*buckets),
		maxFlows:   maxFlows,
		maxSpans:   maxSpans,
		stream:     telemetry.NewRing[FlowSnapshot](streamCap),
	}
	for c := range m.drops {
		m.drops[c] = make([]uint64, dirs*buckets)
	}
	return m
}

// Sampling reports whether path tracing is on (one branch on the inject
// path when the Mon itself is enabled).
func (m *Mon) Sampling() bool { return m.sample > 0 }

// SampleEvery returns the configured sampling stride (0 = off).
func (m *Mon) SampleEvery() int { return int(m.sample) }

// bucketOf maps a simulated time onto a series bucket, clamping at the
// edges (a send may be recorded at exactly the horizon).
func (m *Mon) bucketOf(at des.Time) int {
	b := int(int64(at) / m.bucketNS)
	if b < 0 {
		b = 0
	}
	if b >= buckets {
		b = buckets - 1
	}
	return b
}

// LinkSend records bits put onto link direction dir at time at, after
// queueing for queueNS. dir is 2*link for the A→B direction, 2*link+1 for
// B→A (the netsim convention: +1 when node B transmits).
func (m *Mon) LinkSend(dir int, at des.Time, bits int64, queueNS int64) {
	i := dir*buckets + m.bucketOf(at)
	atomic.AddUint64(&m.bits[i], uint64(bits))
	for {
		old := atomic.LoadInt64(&m.qmax[i])
		if queueNS <= old || atomic.CompareAndSwapInt64(&m.qmax[i], old, queueNS) {
			return
		}
	}
}

// LinkDrop records a loss with the given cause on link direction dir at
// time at. dir < 0 records an unattributed loss (no link was involved —
// e.g. no route at the source); only the per-cause total advances.
func (m *Mon) LinkDrop(dir int, at des.Time, cause DropCause) {
	atomic.AddUint64(&m.total[cause], 1)
	if dir < 0 {
		return
	}
	atomic.AddUint64(&m.drops[cause][dir*buckets+m.bucketOf(at)], 1)
}

// EnsureFluid allocates the fluid per-link series. netsim calls it once
// before folding a hybrid run's fluid plane; runs without one never pay
// for the arrays.
func (m *Mon) EnsureFluid() {
	if m.fluidBits.Load() == nil {
		fb := make([]uint64, 2*m.links*buckets)
		m.fluidBits.Store(&fb)
	}
}

// AddFluidBits folds fluid-plane load — rate wire bits/s on link
// direction dir over [from, to) — into the bucketed series, splitting
// across bucket edges pro rata. Post-run only (single goroutine, after
// EnsureFluid); reports may read concurrently.
func (m *Mon) AddFluidBits(dir int, from, to des.Time, rate float64) {
	fb := m.fluidBits.Load()
	if fb == nil || rate <= 0 || to <= from {
		return
	}
	if to > m.horizon {
		to = m.horizon
	}
	base := dir * buckets
	for b := m.bucketOf(from); b <= m.bucketOf(to-1); b++ {
		lo, hi := from, to
		if bs := des.Time(int64(b) * m.bucketNS); bs > lo {
			lo = bs
		}
		if be := des.Time(int64(b+1) * m.bucketNS); be < hi {
			hi = be
		}
		if hi > lo {
			atomic.AddUint64(&(*fb)[base+b], uint64(rate*float64(hi-lo)/float64(des.Second)))
		}
	}
}

// AddFluidLump adds bits, the wire bits the fluid plane put on link
// direction dir at the instant at, to the bucket holding at. Post-run
// only, like AddFluidBits.
func (m *Mon) AddFluidLump(dir int, at des.Time, bits float64) {
	if fb := m.fluidBits.Load(); fb != nil && bits > 0 {
		atomic.AddUint64(&(*fb)[dir*buckets+m.bucketOf(at)], uint64(bits))
	}
}

// FluidFCT records one completed fluid flow's completion time into the
// fluid FCT histogram (post-run fold, like AddFluidBits).
func (m *Mon) FluidFCT(fctNS int64) { m.fluidFct.observe(fctNS) }

// SampleTrace decides whether a packet is path-traced and returns its
// trace id (0 = not sampled). The decision hashes the packet's intrinsic
// identity — endpoints, sequence, direction, size, injection time — so it
// is independent of partitioning, engine interleaving and worker count:
// every run samples exactly the same packets.
func (m *Mon) SampleTrace(src, dst model.NodeID, seq int32, ack bool, bits int64, at des.Time) uint64 {
	if m.sample == 0 {
		return 0
	}
	h := fnvMix(uint64(uint32(src)), uint64(uint32(dst)), uint64(uint32(seq)),
		boolBit(ack), uint64(bits), uint64(at))
	if h%m.sample != 0 {
		return 0
	}
	if h == 0 {
		h = 1 // 0 means "untraced" on the wire
	}
	return h
}

// fnvMix is FNV-1a over the words of a packet identity.
func fnvMix(words ...uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h ^= w & 0xff
			h *= prime64
			w >>= 8
		}
	}
	return h
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// SpanKind classifies one hop span of a traced packet's path.
type SpanKind string

const (
	// SpanHop is a link traversal: Start is when the packet reached the
	// transmit queue, End when it arrives at the far end.
	SpanHop SpanKind = "hop"
	// SpanDeliver marks arrival at the packet's destination node.
	SpanDeliver SpanKind = "deliver"
	// SpanDropTail, SpanDropNoRoute, SpanDropTTL and SpanDropFault are
	// terminal loss spans, mirroring DropCause.
	SpanDropTail    SpanKind = "drop-tail"
	SpanDropNoRoute SpanKind = "drop-no-route"
	SpanDropTTL     SpanKind = "drop-ttl"
	SpanDropFault   SpanKind = "drop-fault"
)

// HopSpan is one recorded step of a sampled packet's path. Spans recorded
// on different workers carry the same Trace id (it rides the wire codec),
// so sorting a trace's spans by Start reassembles the end-to-end path;
// Engine records where the span was executed, which is what proves
// cross-worker stitching.
type HopSpan struct {
	Trace  uint64       `json:"trace"`
	Src    model.NodeID `json:"src"`
	Dst    model.NodeID `json:"dst"`
	Node   model.NodeID `json:"node"`
	Link   model.LinkID `json:"link"` // -1 on terminal spans
	Kind   SpanKind     `json:"kind"`
	Start  des.Time     `json:"start_ns"`
	End    des.Time     `json:"end_ns"`
	Engine int          `json:"engine"`
	Ack    bool         `json:"ack,omitempty"`
	Seq    int32        `json:"seq,omitempty"`
}

// Span stores one hop span, up to the configured bound.
func (m *Mon) Span(sp HopSpan) {
	m.spanMu.Lock()
	if len(m.spans) < m.maxSpans {
		m.spans = append(m.spans, sp)
	} else {
		m.spanOverflow++
	}
	m.spanMu.Unlock()
}

// Spans returns a sorted copy of the recorded hop spans (by trace id, then
// start time, then kind/node for deterministic tie-breaks). Safe while the
// run is live.
func (m *Mon) Spans() []HopSpan {
	m.spanMu.Lock()
	out := make([]HopSpan, len(m.spans))
	copy(out, m.spans)
	m.spanMu.Unlock()
	SortSpans(out)
	return out
}

// SortSpans orders spans by (Trace, Start, Node, Kind): append order is an
// artifact of engine interleaving, this order is not.
func SortSpans(spans []HopSpan) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Kind < b.Kind
	})
}

// Path is one sampled packet's reassembled journey.
type Path struct {
	Trace uint64       `json:"trace"`
	Src   model.NodeID `json:"src"`
	Dst   model.NodeID `json:"dst"`
	Ack   bool         `json:"ack,omitempty"`
	Spans []HopSpan    `json:"spans"`
}

// Paths groups the recorded spans by trace id, each path's spans ordered
// by start time.
func (m *Mon) Paths() []Path {
	spans := m.Spans()
	var out []Path
	for i := 0; i < len(spans); {
		j := i
		for j < len(spans) && spans[j].Trace == spans[i].Trace {
			j++
		}
		out = append(out, Path{
			Trace: spans[i].Trace,
			Src:   spans[i].Src,
			Dst:   spans[i].Dst,
			Ack:   spans[i].Ack,
			Spans: spans[i:j:j],
		})
		i = j
	}
	return out
}
