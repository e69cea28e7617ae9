// TCP and UDP transport for the packet simulator: a simplified TCP Reno
// with slow start, congestion avoidance, fast retransmit on triple
// duplicate ACKs, adaptive retransmission timeout with Karn's algorithm,
// and exponential RTO backoff. The paper's MaSSF provides "basic
// implementations of these protocols which maintain their behavior
// characteristics" — the same goal applies here: window dynamics, loss
// recovery and ACK traffic are modeled; byte-granular sequence numbers and
// SACK are not.
package netsim

import (
	"massf/internal/des"
	"massf/internal/model"
	"massf/internal/netmon"
)

// Transport constants.
const (
	// MSSBytes is the segment payload size.
	MSSBytes = 1460
	// HeaderBytes models IP+TCP headers on data segments.
	HeaderBytes = 40
	// AckBytes is the size of a pure ACK.
	AckBytes = 40

	initialCwnd     = 2.0
	initialSsthresh = 64.0
	minRTO          = 20 * des.Millisecond
	maxRTO          = 2 * des.Second
	initialRTO      = 300 * des.Millisecond
)

// flow is one TCP transfer. Sender-side fields are owned by (touched only
// on) the source host's engine, receiver-side fields by the destination's.
type flow struct {
	src, dst  model.NodeID
	totalPkts int32
	lastBits  int64 // size of the final segment (bits incl. header)

	// Distributed identity (see dist.go): id is the wire identity (0 on
	// in-process runs), deliverTag reconstructs onDeliver on the
	// destination worker when the flow crosses a partition.
	id         uint64
	deliverTag Tag

	// Sender state.
	cwnd, ssthresh float64
	nextSeq        int32 // next never-sent sequence
	ackedTo        int32 // cumulative: all seq < ackedTo are acked
	dupAcks        int
	recovering     bool
	recover        int32   // NewReno recovery point (highest seq sent at loss)
	srtt, rttvar   float64 // ns
	rto            des.Time
	rtoEvent       des.Event  // value handle; stale after fire (gen-checked Cancel is a no-op)
	rtoArmed       bool       // the last armRTO scheduled rtoEvent before the horizon and the flow has not completed
	rtoh           rtoHandler // embedded so arming the timer allocates nothing
	sendTime       []des.Time // per-seq first-send time; 0 after retransmit (Karn)
	done           bool
	onComplete     func(at des.Time)

	// Receiver state.
	recvNext  int32
	ooo       map[int32]bool
	recvDone  bool
	onDeliver func(at des.Time)

	// rec is the flow's netmon record (nil when observability is off or
	// the record table overflowed). It carries its own lock, so sender and
	// receiver engines write their halves without racing.
	rec *netmon.FlowRec
}

// rtoHandler fires a flow's retransmission timeout through the
// allocation-free EventHandler seam.
type rtoHandler struct {
	s *Sim
	f *flow
}

func (h *rtoHandler) OnEvent(des.Time) { h.s.onRTO(h.f) }

// StartFlowRecv schedules a TCP transfer of the given payload size from
// host src to host dst beginning at time at. It may be called during setup
// or from a handler running on src's engine. Both callbacks are optional:
// onComplete runs on src's engine when the last byte is acknowledged,
// onDeliver on dst's engine when the final byte of payload arrives —
// the supported way to chain request/response traffic, since the response
// flow must be started from the destination's engine and onDeliver is a
// handler already running there. In distributed runs, closure callbacks on
// flows started at RUNTIME cannot cross workers; use StartFlowTagged for
// those (every worker makes the same setup-time calls, so each endpoint's
// worker holds its own copy of the closures). An in-process flow is
// released when it completes; distributed workers keep their id registry.
func (s *Sim) StartFlowRecv(at des.Time, src, dst model.NodeID, bytes int64, onComplete, onDeliver func(at des.Time)) {
	s.startFlow(at, src, dst, bytes, onComplete, onDeliver, Tag{})
}

// startFlow is the shared construction path of StartFlowRecv and
// StartFlowTagged.
func (s *Sim) startFlow(at des.Time, src, dst model.NodeID, bytes int64, onComplete, onDeliver func(at des.Time), deliverTag Tag) {
	if bytes <= 0 {
		bytes = 1
	}
	if s.dist && !s.running &&
		!s.hostedEngine(s.EngineOf(src)) && !s.hostedEngine(s.EngineOf(dst)) {
		// Neither endpoint lives on this worker, so the flow object (sender
		// timestamps, receiver buffers) is another worker's state. Only the
		// global identity counter advances, keeping wire flow ids the same
		// on every worker; transit packets of this flow ride wire
		// references like any foreign flow.
		s.setupFlows++
		return
	}
	pkts := (bytes + MSSBytes - 1) / MSSBytes
	lastPayload := bytes - (pkts-1)*MSSBytes
	f := &flow{
		src: src, dst: dst,
		totalPkts:  int32(pkts),
		lastBits:   (lastPayload + HeaderBytes) * 8,
		cwnd:       initialCwnd,
		ssthresh:   initialSsthresh,
		rto:        initialRTO,
		sendTime:   make([]des.Time, pkts),
		onComplete: onComplete,
		onDeliver:  onDeliver,
		deliverTag: deliverTag,
		ooo:        map[int32]bool{},
	}
	f.rtoh = rtoHandler{s: s, f: f}
	if s.mon != nil {
		f.rec = s.mon.FlowStarted(at, src, dst, bytes)
	}
	s.registerFlow(f)
	s.eng[s.EngineOf(src)].flowsStarted++
	s.ScheduleAt(src, at, func(des.Time) { s.sendWindow(f) })
}

// segBits returns the wire size of segment seq.
func (f *flow) segBits(seq int32) int64 {
	if seq == f.totalPkts-1 {
		return f.lastBits
	}
	return (MSSBytes + HeaderBytes) * 8
}

// sendWindow transmits new segments allowed by the congestion window.
// Runs on the source engine.
func (s *Sim) sendWindow(f *flow) {
	if f.done {
		return
	}
	win := int32(f.cwnd)
	if win < 1 {
		win = 1
	}
	sent := false
	for f.nextSeq < f.totalPkts && f.nextSeq-f.ackedTo < win {
		s.sendSeg(f, f.nextSeq, true)
		f.nextSeq++
		sent = true
	}
	if sent || !f.rtoArmed {
		s.armRTO(f)
	}
}

// sendSeg transmits one segment. fresh marks a first transmission (usable
// for RTT sampling); retransmissions clear the timestamp per Karn's rule.
func (s *Sim) sendSeg(f *flow, seq int32, fresh bool) {
	eng := s.ps.Engine(s.EngineOf(f.src))
	now := eng.Now()
	if fresh && f.sendTime[seq] == 0 {
		f.sendTime[seq] = now
	} else {
		f.sendTime[seq] = 0
		s.eng[eng.ID()].retrans++
		if f.rec != nil {
			f.rec.Retransmit()
		}
	}
	s.countEvent(f.src)
	pkt := Packet{Src: f.src, Dst: f.dst, Bits: f.segBits(seq), Seq: seq, flow: f, ttl: DefaultTTL}
	if s.mon != nil {
		pkt.trace = s.mon.SampleTrace(pkt.Src, pkt.Dst, pkt.Seq, false, pkt.Bits, now)
	}
	lid := s.nextLink(now, f.src, f.dst)
	if lid < 0 {
		s.drop(f.src, &pkt, -1, -1, now, netmon.DropNoRoute, -1)
		return
	}
	s.send(f.src, lid, &pkt)
}

// armRTO (re)schedules the retransmission timer. Runs on the source engine.
func (s *Sim) armRTO(f *flow) {
	eng := s.ps.Engine(s.EngineOf(f.src))
	eng.Cancel(f.rtoEvent) // stale (already fired) handles are a safe no-op
	at := eng.Now() + f.rto
	if at >= s.cfg.End {
		f.rtoArmed = false
		return
	}
	f.rtoEvent = eng.ScheduleEvent(at, &f.rtoh)
	f.rtoArmed = true
}

// onRTO handles a retransmission timeout: multiplicative decrease to a
// window of one, exponential timer backoff, resend the first unacked
// segment. Runs on the source engine.
func (s *Sim) onRTO(f *flow) {
	if f.done || f.ackedTo >= f.totalPkts {
		return
	}
	s.countEvent(f.src)
	f.ssthresh = f.cwnd / 2
	if f.ssthresh < 2 {
		f.ssthresh = 2
	}
	f.cwnd = 1
	f.dupAcks = 0
	f.recovering = true
	f.recover = f.nextSeq
	f.rto = clampRTO(f.rto * 2)
	s.sendSeg(f, f.ackedTo, false)
	s.armRTO(f)
}

// onData handles a data segment at the receiver: cumulative in-order
// tracking with out-of-order buffering, one ACK per segment. Runs on the
// destination engine.
func (s *Sim) onData(f *flow, pkt *Packet) {
	now := s.ps.Engine(s.EngineOf(f.dst)).Now()
	if f.rec != nil {
		f.rec.FirstByteAt(now)
	}
	switch {
	case pkt.Seq == f.recvNext:
		f.recvNext++
		for f.ooo[f.recvNext] {
			delete(f.ooo, f.recvNext)
			f.recvNext++
		}
	case pkt.Seq > f.recvNext:
		f.ooo[pkt.Seq] = true
	}
	if !f.recvDone && f.recvNext >= f.totalPkts {
		f.recvDone = true
		if f.onDeliver != nil {
			f.onDeliver(now)
		}
	}
	// ACK travels back through the network like any packet.
	ack := Packet{Src: f.dst, Dst: f.src, Bits: AckBytes * 8, Ack: true, AckNum: f.recvNext, flow: f, ttl: DefaultTTL}
	if s.mon != nil {
		ack.trace = s.mon.SampleTrace(ack.Src, ack.Dst, ack.AckNum, true, ack.Bits, now)
	}
	lid := s.nextLink(now, f.dst, f.src)
	if lid < 0 {
		s.drop(f.dst, &ack, -1, -1, now, netmon.DropNoRoute, -1)
		return
	}
	s.send(f.dst, lid, &ack)
}

// onAck handles a cumulative ACK at the sender. Runs on the source engine.
func (s *Sim) onAck(f *flow, pkt *Packet) {
	if f.done {
		return
	}
	eng := s.ps.Engine(s.EngineOf(f.src))
	now := eng.Now()
	switch {
	case pkt.AckNum > f.ackedTo:
		newly := pkt.AckNum - f.ackedTo
		// RTT sample from the newest freshly-sent acked segment.
		if ts := f.sendTime[pkt.AckNum-1]; ts > 0 {
			s.rttSample(f, float64(now-ts))
		} else if f.srtt > 0 {
			// No Karn-valid sample, but forward progress: undo RTO
			// backoff using the existing smoothed estimate.
			f.rto = clampRTO(des.Time(f.srtt + 4*f.rttvar))
		}
		f.ackedTo = pkt.AckNum
		f.dupAcks = 0
		if f.recovering && pkt.AckNum < f.recover {
			// NewReno partial ACK: the next hole is lost too; retransmit
			// it immediately instead of waiting out an RTO per hole.
			s.sendSeg(f, f.ackedTo, false)
		} else {
			f.recovering = false
		}
		for i := int32(0); i < newly; i++ {
			if f.cwnd < f.ssthresh {
				f.cwnd++ // slow start
			} else {
				f.cwnd += 1 / f.cwnd // congestion avoidance
			}
		}
		if f.rec != nil {
			f.rec.Sample(now, f.srtt, f.cwnd)
		}
		if f.ackedTo >= f.totalPkts {
			f.done = true
			s.eng[eng.ID()].flowsDone++
			s.eng[eng.ID()].lastDone = now // engine time never decreases
			if f.rec != nil {
				s.mon.FlowCompleted(f.rec, now)
			}
			eng.Cancel(f.rtoEvent)
			f.rtoArmed = false
			if f.onComplete != nil {
				f.onComplete(now)
			}
			return
		}
		s.sendWindow(f)
		s.armRTO(f)
	case pkt.AckNum == f.ackedTo:
		f.dupAcks++
		if f.dupAcks == 3 && !f.recovering {
			// Fast retransmit / simplified fast recovery.
			f.ssthresh = f.cwnd / 2
			if f.ssthresh < 2 {
				f.ssthresh = 2
			}
			f.cwnd = f.ssthresh
			f.recovering = true
			f.recover = f.nextSeq
			s.sendSeg(f, f.ackedTo, false)
			s.armRTO(f)
		}
	}
}

// rttSample folds a measurement into srtt/rttvar and refreshes the RTO
// (RFC 6298 style smoothing).
func (s *Sim) rttSample(f *flow, sample float64) {
	if f.srtt == 0 {
		f.srtt = sample
		f.rttvar = sample / 2
	} else {
		d := sample - f.srtt
		if d < 0 {
			d = -d
		}
		f.rttvar = 0.75*f.rttvar + 0.25*d
		f.srtt = 0.875*f.srtt + 0.125*sample
	}
	f.rto = clampRTO(des.Time(f.srtt + 4*f.rttvar))
}

// clampRTO bounds a retransmission timeout to [minRTO, maxRTO].
func clampRTO(rto des.Time) des.Time {
	if rto < minRTO {
		return minRTO
	}
	if rto > maxRTO {
		return maxRTO
	}
	return rto
}

// deliver dispatches a packet that reached its destination node. Runs on
// the destination's engine.
func (s *Sim) deliver(node model.NodeID, pkt *Packet) {
	eng := s.EngineOf(node)
	if pkt.flow == nil && pkt.wref != nil {
		pkt.flow = s.adoptFlow(pkt) // wire packet for a flow this worker has not seen
	}
	switch {
	case pkt.flow != nil && pkt.Ack:
		s.onAck(pkt.flow, pkt)
	case pkt.flow != nil:
		s.eng[eng].delivered += uint64(pkt.Bits)
		s.onData(pkt.flow, pkt)
	default:
		s.eng[eng].delivered += uint64(pkt.Bits)
		if pkt.deliverCb != nil {
			pkt.deliverCb(s.ps.Engine(eng).Now())
		}
	}
}
