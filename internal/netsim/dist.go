// Distributed execution support: the wire codec that serializes hop
// events across worker processes, the flow/callback identity registries
// that let serialized packets reference model state by small integers, and
// the receiver-side flow replica adoption that makes runtime-started TCP
// transfers work across workers.
//
// The identity scheme leans on every worker making the same setup calls
// in the same order, while materializing only its slice — the state its
// hosted engines touch:
//
//   - Setup-time flows get sequential ids from a global counter, identical
//     on every worker. The flow OBJECT exists on the workers hosting either
//     endpoint, so a wire packet arriving there resolves to a local object
//     holding the setup-time closures; other workers only advance the
//     counter, and packets transit them as wire references.
//   - Runtime flows exist only on the worker that started them. They get
//     ids namespaced by owning engine ((engine+1)<<40 | counter), and the
//     destination worker adopts a receiver-side replica on first data
//     arrival, reconstructing the delivery callback from the flow's Tag.
//   - UDP delivery callbacks registered during setup get their slice index
//     as wire identity; runtime-registered callbacks cannot cross workers
//     (the encoder fails loudly).
//
// Closure callbacks on RUNTIME flows cannot cross workers either — the
// closure only exists on the creating worker — so distributed models chain
// cross-partition request/response traffic through the Tag registry
// (StartFlowTagged); see traffic.InstallHTTP for the canonical use.
package netsim

import (
	"fmt"

	"massf/internal/des"
	"massf/internal/model"
	"massf/internal/wire"
)

// hopKind is the pdes.Codec kind of the one netsim event type that crosses
// workers: a packet hop.
const hopKind uint16 = 1

// flagTraced marks a hop payload that carries a netmon path-trace id as
// its trailing U64 (flag bit 1 is the ACK bit).
const flagTraced byte = 1 << 1

// runtimeFlowIDBase separates runtime flow ids ((engine+1)<<40 | counter)
// from setup-time sequential ids.
const runtimeFlowIDBase uint64 = 1 << 40

// Tag names a callback in the replicated tag registry: Kind selects the
// resolver registered with RegisterTag, A and B are opaque arguments it
// interprets. The zero Tag means "no callback". Tags are the wire-safe
// alternative to closures for receiver-side flow callbacks: every worker
// resolves the same Tag to an equivalent local closure.
type Tag struct {
	Kind uint16
	A, B uint64
}

// TagResolver materializes the callback a Tag names, for a flow from src
// to dst. It runs on the worker where the callback will fire, which may
// not be the worker that started the flow.
type TagResolver func(t Tag, src, dst model.NodeID) func(des.Time)

// RegisterTag installs a resolver for a tag kind. Call during setup (it is
// not synchronized against a running simulation); kinds are a model-level
// namespace, 0 is reserved, duplicates panic.
func (s *Sim) RegisterTag(kind uint16, r TagResolver) {
	if kind == 0 {
		panic("netsim: tag kind 0 is reserved for \"no callback\"")
	}
	if _, dup := s.tags[kind]; dup {
		panic(fmt.Sprintf("netsim: tag kind %d registered twice", kind))
	}
	s.tags[kind] = r
}

// resolveTag materializes t's callback (nil for the zero Tag).
func (s *Sim) resolveTag(t Tag, src, dst model.NodeID) func(des.Time) {
	if t.Kind == 0 {
		return nil
	}
	r := s.tags[t.Kind]
	if r == nil {
		panic(fmt.Sprintf("netsim: flow references unregistered tag kind %d", t.Kind))
	}
	return r(t, src, dst)
}

// StartFlowTagged is StartFlowRecv with registry-resolved callbacks:
// complete runs on src's engine when the last byte is acknowledged,
// deliver on dst's engine when the payload fully arrives. Unlike closure
// callbacks, tagged callbacks survive serialization, so this is the form
// runtime-started cross-partition traffic must use in distributed runs.
// In-process it behaves exactly like StartFlowRecv with the resolved
// closures.
func (s *Sim) StartFlowTagged(at des.Time, src, dst model.NodeID, bytes int64, complete, deliver Tag) {
	s.startFlow(at, src, dst, bytes,
		s.resolveTag(complete, src, dst), s.resolveTag(deliver, src, dst), deliver)
}

// registerFlow assigns f its wire identity and publishes it in the flow
// registry. In-process runs skip it entirely; flow ids stay 0 there.
func (s *Sim) registerFlow(f *flow) {
	if !s.dist {
		return
	}
	if !s.running {
		// Setup: the global counter advances identically on every
		// worker, so id → object agrees everywhere.
		s.setupFlows++
		f.id = s.setupFlows
	} else {
		eng := s.EngineOf(f.src)
		st := &s.eng[eng]
		st.runFlowCtr++
		f.id = uint64(eng+1)<<40 | st.runFlowCtr
	}
	s.flowMu.Lock()
	s.flows[f.id] = f
	s.flowMu.Unlock()
}

// wireRef is the serialized identity of a flow, carried by packets through
// workers that do not hold the flow object (transit routers, and the
// destination before replica adoption).
type wireRef struct {
	flowID     uint64
	totalPkts  int32
	lastBits   int64
	deliverTag Tag
}

// adoptFlow resolves a wire flow reference at the packet's final
// destination: a registry hit returns the local object (a setup-time
// flow, or a replica adopted by an earlier packet); a miss creates and
// registers a receiver-side replica with only the receiver half populated.
// Runs on the destination node's engine.
func (s *Sim) adoptFlow(pkt *Packet) *flow {
	w := pkt.wref
	if pkt.Ack {
		// ACKs terminate at the flow's source, whose worker created the
		// flow and always has it registered.
		panic(fmt.Sprintf("netsim: ACK for flow %#x unknown at its own source node %d", w.flowID, pkt.Dst))
	}
	s.flowMu.RLock()
	f := s.flows[w.flowID]
	s.flowMu.RUnlock()
	if f != nil {
		return f
	}
	f = &flow{
		src: pkt.Src, dst: pkt.Dst, id: w.flowID,
		totalPkts: w.totalPkts, lastBits: w.lastBits,
		deliverTag: w.deliverTag,
		ooo:        map[int32]bool{},
	}
	f.onDeliver = s.resolveTag(w.deliverTag, pkt.Src, pkt.Dst)
	s.flowMu.Lock()
	if g, ok := s.flows[w.flowID]; ok {
		f = g // lost a (cross-engine) adoption race; keep the winner
	} else {
		s.flows[w.flowID] = f
	}
	s.flowMu.Unlock()
	return f
}

// netCodec implements pdes.Codec for hop events. Encode runs on the
// sending engine's goroutine and gives the encoded hop back to that
// engine's pool; Decode runs on the leader while the receiving engine
// waits, so it may take from that engine's pool. The flow/UDP registries
// are the only shared state and sit behind flowMu.
type netCodec struct{ s *Sim }

func (c netCodec) Encode(eh des.EventHandler) (uint16, []byte, error) {
	h, ok := eh.(*hopEvent)
	if !ok {
		return 0, nil, fmt.Errorf("netsim: event handler %T cannot cross workers", eh)
	}
	s := c.s
	pkt := &h.pkt
	if pkt.deliverCb != nil && (pkt.udpID == 0 || int(pkt.udpID) > s.udpSetup) {
		return 0, nil, fmt.Errorf("netsim: UDP callback registered after setup cannot cross workers (send callback datagrams during setup)")
	}
	var ref wireRef
	switch {
	case pkt.flow != nil:
		f := pkt.flow
		if f.id == 0 {
			return 0, nil, fmt.Errorf("netsim: flow without wire identity crossed workers")
		}
		if f.id >= runtimeFlowIDBase && f.onDeliver != nil && f.deliverTag.Kind == 0 {
			return 0, nil, fmt.Errorf("netsim: runtime flow with a closure delivery callback cannot cross workers; use StartFlowTagged")
		}
		ref = wireRef{flowID: f.id, totalPkts: f.totalPkts, lastBits: f.lastBits, deliverTag: f.deliverTag}
	case pkt.wref != nil:
		ref = *pkt.wref
	}
	var b wire.Buffer
	b.U32(uint32(h.node))
	b.U32(uint32(h.link))
	b.U32(uint32(pkt.Src))
	b.U32(uint32(pkt.Dst))
	b.I64(pkt.Bits)
	b.I32(pkt.Seq)
	b.I32(pkt.AckNum)
	var flags byte
	if pkt.Ack {
		flags |= 1
	}
	if pkt.trace != 0 {
		flags |= flagTraced
	}
	b.U8(flags)
	b.U8(byte(pkt.ttl))
	b.U32(uint32(pkt.udpID))
	b.U64(ref.flowID)
	if ref.flowID != 0 {
		b.I32(ref.totalPkts)
		b.I64(ref.lastBits)
		b.U16(ref.deliverTag.Kind)
		b.U64(ref.deliverTag.A)
		b.U64(ref.deliverTag.B)
	}
	if pkt.trace != 0 {
		// Path-trace id: carried only for sampled packets, so the common
		// untraced hop costs no extra wire bytes. Crossing workers with
		// the packet is what lets hop spans recorded on different workers
		// stitch into one path.
		b.U64(pkt.trace)
	}
	// Back to the sending engine's pool: the sender is h.link's far end.
	s.freeHop(s.EngineOf(s.cfg.Net.Links[h.link].Other(h.node)), h)
	return hopKind, b.B, nil
}

func (c netCodec) Decode(dst int, kind uint16, payload []byte) (des.EventHandler, error) {
	if kind != hopKind {
		return nil, fmt.Errorf("netsim: unknown wire event kind %d", kind)
	}
	s := c.s
	r := wire.NewReader(payload)
	node := model.NodeID(r.U32())
	link := model.LinkID(r.U32())
	pkt := Packet{
		Src:    model.NodeID(r.U32()),
		Dst:    model.NodeID(r.U32()),
		Bits:   r.I64(),
		Seq:    r.I32(),
		AckNum: r.I32(),
	}
	flags := r.U8()
	pkt.Ack = flags&1 != 0
	pkt.ttl = int8(r.U8())
	pkt.udpID = int32(r.U32())
	ref := wireRef{flowID: r.U64()}
	if ref.flowID != 0 {
		ref.totalPkts = r.I32()
		ref.lastBits = r.I64()
		ref.deliverTag = Tag{Kind: r.U16(), A: r.U64(), B: r.U64()}
	}
	if flags&flagTraced != 0 {
		pkt.trace = r.U64()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("netsim: malformed hop event: %w", err)
	}
	if pkt.udpID != 0 {
		s.flowMu.RLock()
		ok := int(pkt.udpID) <= len(s.udpCbs)
		if ok {
			pkt.deliverCb = s.udpCbs[pkt.udpID-1]
		}
		s.flowMu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("netsim: unknown UDP callback id %d (setup not replicated?)", pkt.udpID)
		}
	}
	if ref.flowID != 0 {
		s.flowMu.RLock()
		f := s.flows[ref.flowID]
		s.flowMu.RUnlock()
		if f != nil {
			pkt.flow = f
		} else {
			// Unknown here: a runtime flow from another worker. Carry the
			// reference; deliver adopts a replica if this node is the
			// destination, transit hops re-encode it untouched.
			w := ref
			pkt.wref = &w
		}
	}
	h := s.newHop(dst)
	h.node = node
	h.link = link
	h.pkt = pkt
	return h, nil
}
