package netmon

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"massf/internal/des"
	"massf/internal/model"
)

// maxFlowSamples bounds the SRTT/cwnd trajectory kept per flow; when full
// the samples are decimated (every other one dropped) and the admission
// stride doubles, so long flows keep a bounded, evenly-spread trajectory.
const maxFlowSamples = 128

// FlowSample is one point of a flow's congestion trajectory, taken when an
// ACK advances the window.
type FlowSample struct {
	At     des.Time `json:"at_ns"`
	SRTTNS int64    `json:"srtt_ns"`
	Cwnd   float64  `json:"cwnd"`
}

// FlowRec is the per-flow record netsim's TCP writes into. Sender-side
// hooks run on the source host's engine and receiver-side hooks on the
// destination's — each record carries its own mutex so the two sides (and
// live HTTP readers) never race. In distributed runs each worker holds its
// own partial view of a record: sender fields fill on the source's worker,
// FirstByte on the destination's.
type FlowRec struct {
	mu sync.Mutex

	id       int
	src, dst model.NodeID
	bytes    int64
	start    des.Time

	firstByte   des.Time
	completed   des.Time
	retransmits uint32
	samples     []FlowSample
	stride      uint32 // admit every stride-th sample offer
	offers      uint32
	goodputBps  float64
}

// FlowStarted opens a record for a transfer of bytes from src to dst
// starting at time at. Returns nil once maxFlows records exist (the
// overflow is counted); callers must tolerate a nil record.
func (m *Mon) FlowStarted(at des.Time, src, dst model.NodeID, bytes int64) *FlowRec {
	m.flowMu.Lock()
	defer m.flowMu.Unlock()
	if len(m.flows) >= m.maxFlows {
		m.flowOverflow++
		return nil
	}
	r := &FlowRec{id: len(m.flows), src: src, dst: dst, bytes: bytes, start: at, stride: 1}
	m.flows = append(m.flows, r)
	return r
}

// Retransmit counts one retransmitted segment.
func (r *FlowRec) Retransmit() {
	r.mu.Lock()
	r.retransmits++
	r.mu.Unlock()
}

// Sample offers one SRTT/cwnd point (sender side, on ACK progress).
func (r *FlowRec) Sample(at des.Time, srttNS float64, cwnd float64) {
	r.mu.Lock()
	r.offers++
	if r.offers%r.stride == 0 {
		if len(r.samples) >= maxFlowSamples {
			// Decimate: keep every other sample and double the stride.
			kept := r.samples[:0]
			for i := 0; i < len(r.samples); i += 2 {
				kept = append(kept, r.samples[i])
			}
			r.samples = kept
			r.stride *= 2
		}
		r.samples = append(r.samples, FlowSample{At: at, SRTTNS: int64(srttNS), Cwnd: cwnd})
	}
	r.mu.Unlock()
}

// FirstByteAt records the first data arrival at the receiver (only the
// first call takes effect).
func (r *FlowRec) FirstByteAt(at des.Time) {
	r.mu.Lock()
	if r.firstByte == 0 {
		r.firstByte = at
	}
	r.mu.Unlock()
}

// FlowCompleted closes a record: completion time, goodput, the FCT
// histogram, and the live completion stream.
func (m *Mon) FlowCompleted(r *FlowRec, at des.Time) {
	r.mu.Lock()
	r.completed = at
	fct := int64(at - r.start)
	if fct > 0 {
		r.goodputBps = float64(r.bytes*8) * float64(des.Second) / float64(fct)
	}
	snap := r.snapshotLocked(true)
	r.mu.Unlock()
	m.fct.observe(fct)
	m.stream.Append(snap)
}

// FlowSnapshot is the JSON view of a FlowRec.
type FlowSnapshot struct {
	ID          int          `json:"id"`
	Src         model.NodeID `json:"src"`
	Dst         model.NodeID `json:"dst"`
	Bytes       int64        `json:"bytes"`
	StartNS     int64        `json:"start_ns"`
	FirstByteNS int64        `json:"first_byte_ns,omitempty"`
	CompletedNS int64        `json:"completed_ns,omitempty"`
	FCTNS       int64        `json:"fct_ns,omitempty"`
	Retransmits uint32       `json:"retransmits,omitempty"`
	GoodputBps  float64      `json:"goodput_bps,omitempty"`
	Samples     []FlowSample `json:"samples,omitempty"`
}

func (r *FlowRec) snapshotLocked(withSamples bool) FlowSnapshot {
	s := FlowSnapshot{
		ID: r.id, Src: r.src, Dst: r.dst, Bytes: r.bytes,
		StartNS:     int64(r.start),
		FirstByteNS: int64(r.firstByte),
		CompletedNS: int64(r.completed),
		Retransmits: r.retransmits,
		GoodputBps:  r.goodputBps,
	}
	if r.completed > 0 {
		s.FCTNS = int64(r.completed - r.start)
	}
	if withSamples {
		s.Samples = append([]FlowSample(nil), r.samples...)
	}
	return s
}

func (r *FlowRec) snapshot(withSamples bool) FlowSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked(withSamples)
}

// fctHist is a log2-bucketed flow-completion-time histogram: bucket i
// counts completions with FCT in [2^(i-1), 2^i) ns. Atomic, so sender
// engines update it concurrently and reads are live-safe.
type fctHist struct {
	count   uint64
	buckets [64]uint64
}

func (h *fctHist) observe(fctNS int64) {
	if fctNS < 0 {
		fctNS = 0
	}
	atomic.AddUint64(&h.count, 1)
	atomic.AddUint64(&h.buckets[bits.Len64(uint64(fctNS))&63], 1)
}

// FCTBucket is one non-empty histogram bucket: Count completions with
// LoNS ≤ FCT < HiNS.
type FCTBucket struct {
	LoNS  int64  `json:"lo_ns"`
	HiNS  int64  `json:"hi_ns"`
	Count uint64 `json:"count"`
}

// FCTHistogram is the flow-completion-time distribution with approximate
// percentiles (upper bucket bounds, so within 2× of exact).
type FCTHistogram struct {
	Count   uint64      `json:"count"`
	P50NS   int64       `json:"p50_ns,omitempty"`
	P90NS   int64       `json:"p90_ns,omitempty"`
	P99NS   int64       `json:"p99_ns,omitempty"`
	Buckets []FCTBucket `json:"buckets,omitempty"`
}

func (h *fctHist) report() FCTHistogram {
	var counts [64]uint64
	out := FCTHistogram{Count: atomic.LoadUint64(&h.count)}
	for i := range h.buckets {
		counts[i] = atomic.LoadUint64(&h.buckets[i])
		if counts[i] == 0 {
			continue
		}
		lo := int64(0)
		if i > 0 {
			lo = int64(1) << (i - 1)
		}
		out.Buckets = append(out.Buckets, FCTBucket{LoNS: lo, HiNS: bucketHi(i), Count: counts[i]})
	}
	out.P50NS = percentile(&counts, out.Count, 0.50)
	out.P90NS = percentile(&counts, out.Count, 0.90)
	out.P99NS = percentile(&counts, out.Count, 0.99)
	return out
}

// percentile returns the upper bound of the bucket holding the q-quantile.
func percentile(counts *[64]uint64, total uint64, q float64) int64 {
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum > target {
			return bucketHi(i)
		}
	}
	return math.MaxInt64
}

// bucketHi is the exclusive upper FCT bound of histogram bucket i.
func bucketHi(i int) int64 {
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1) << i
}

// streamCap is the completed-flow stream's replay capacity.
const streamCap = 1024

// SubscribeCompletions returns the completions so far and a channel of
// future ones. cancel must be called when done; the channel closes when
// the run finishes (Mon.Close).
func (m *Mon) SubscribeCompletions(buf int) (past []FlowSnapshot, ch <-chan FlowSnapshot, cancel func()) {
	return m.stream.Subscribe(buf)
}

// Close ends the completion stream (netsim calls it when Run returns).
// Record methods remain safe afterwards; further completions only update
// the histogram and records.
func (m *Mon) Close() { m.stream.Close() }
