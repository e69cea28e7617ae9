package netmon

import (
	"sort"
	"sync/atomic"

	"massf/internal/des"
)

// Summary is the one-paragraph view of a run's network observability,
// embedded in runctl run info and the massf -json dump.
type Summary struct {
	SampleEvery    int    `json:"sample_every,omitempty"`
	FlowsRecorded  int    `json:"flows_recorded"`
	FlowsCompleted uint64 `json:"flows_completed"`
	FlowOverflow   uint64 `json:"flow_overflow,omitempty"`
	Spans          int    `json:"spans"`
	SpanOverflow   uint64 `json:"span_overflow,omitempty"`
	DropsTail      uint64 `json:"drops_tail"`
	DropsNoRoute   uint64 `json:"drops_no_route"`
	DropsTTL       uint64 `json:"drops_ttl"`
	DropsFault     uint64 `json:"drops_fault"`
	FCTP50NS       int64  `json:"fct_p50_ns,omitempty"`
	FCTP90NS       int64  `json:"fct_p90_ns,omitempty"`
	FCTP99NS       int64  `json:"fct_p99_ns,omitempty"`
	// Fluid* mirror the flow counters for the flow-level (fluid) half of
	// a hybrid run; absent on pure-packet runs.
	FluidFlowsCompleted uint64 `json:"fluid_flows_completed,omitempty"`
	FluidFCTP50NS       int64  `json:"fluid_fct_p50_ns,omitempty"`
	FluidFCTP90NS       int64  `json:"fluid_fct_p90_ns,omitempty"`
	FluidFCTP99NS       int64  `json:"fluid_fct_p99_ns,omitempty"`
}

// Summary snapshots the run-level aggregates. Safe while the run is live.
func (m *Mon) Summary() *Summary {
	m.flowMu.Lock()
	flows := len(m.flows)
	overflow := m.flowOverflow
	m.flowMu.Unlock()
	m.spanMu.Lock()
	spans := len(m.spans)
	spanOverflow := m.spanOverflow
	m.spanMu.Unlock()
	fct := m.fct.report()
	ffct := m.fluidFct.report()
	return &Summary{
		FluidFlowsCompleted: ffct.Count,
		FluidFCTP50NS:       ffct.P50NS,
		FluidFCTP90NS:       ffct.P90NS,
		FluidFCTP99NS:       ffct.P99NS,
		SampleEvery:         int(m.sample),
		FlowsRecorded:       flows,
		FlowsCompleted:      fct.Count,
		FlowOverflow:        overflow,
		Spans:               spans,
		SpanOverflow:        spanOverflow,
		DropsTail:           atomic.LoadUint64(&m.total[DropTail]),
		DropsNoRoute:        atomic.LoadUint64(&m.total[DropNoRoute]),
		DropsTTL:            atomic.LoadUint64(&m.total[DropTTL]),
		DropsFault:          atomic.LoadUint64(&m.total[DropFault]),
		FCTP50NS:            fct.P50NS,
		FCTP90NS:            fct.P90NS,
		FCTP99NS:            fct.P99NS,
	}
}

// LinkDirStats is the report of one link direction. Dir 0 carries traffic
// from the link's A endpoint toward B, dir 1 the reverse.
type LinkDirStats struct {
	Link int    `json:"link"`
	Dir  int    `json:"dir"`
	Bits uint64 `json:"bits"`
	// FluidBits is the wire volume the fluid plane carried on this
	// direction (hybrid runs only).
	FluidBits uint64 `json:"fluid_bits,omitempty"`
	// MeanUtil and PeakUtil are the direction's utilization over the
	// whole horizon and over its busiest bucket (only when the Mon was
	// given link bandwidths).
	MeanUtil     float64 `json:"mean_util,omitempty"`
	PeakUtil     float64 `json:"peak_util,omitempty"`
	QueueMaxNS   int64   `json:"queue_max_ns,omitempty"`
	DropsTail    uint64  `json:"drops_tail,omitempty"`
	DropsNoRoute uint64  `json:"drops_no_route,omitempty"`
	DropsTTL     uint64  `json:"drops_ttl,omitempty"`
	DropsFault   uint64  `json:"drops_fault,omitempty"`
	// Series are the per-bucket time series (omitted unless requested).
	BitsSeries     []uint64 `json:"bits_series,omitempty"`
	QueueMaxSeries []int64  `json:"queue_max_series,omitempty"`
	DropsSeries    []uint64 `json:"drops_series,omitempty"` // all causes
}

// LinkReport is the per-link telemetry: the top directions by traffic
// (plus any direction that dropped packets), bucketed over the horizon.
type LinkReport struct {
	BucketNS  int64          `json:"bucket_ns"`
	Buckets   int            `json:"buckets"`
	HorizonNS int64          `json:"horizon_ns"`
	Links     []LinkDirStats `json:"links"`
}

// LinkReport builds the link view: the top directions by transmitted
// bits — plus every direction with drops, which is what bottleneck hunts
// want — with per-bucket series when series is true. top ≤ 0 means all.
// Safe while the run is live.
func (m *Mon) LinkReport(top int, series bool) *LinkReport {
	rep := &LinkReport{BucketNS: m.bucketNS, Buckets: buckets, HorizonNS: int64(m.horizon)}
	all := make([]LinkDirStats, 0, 2*m.links)
	fluid := m.fluidBits.Load()
	for dir := 0; dir < 2*m.links; dir++ {
		st := LinkDirStats{Link: dir / 2, Dir: dir & 1}
		base := dir * buckets
		var peakBits uint64
		for b := 0; b < buckets; b++ {
			bits := atomic.LoadUint64(&m.bits[base+b])
			st.Bits += bits
			if bits > peakBits {
				peakBits = bits
			}
			if q := atomic.LoadInt64(&m.qmax[base+b]); q > st.QueueMaxNS {
				st.QueueMaxNS = q
			}
			st.DropsTail += atomic.LoadUint64(&m.drops[DropTail][base+b])
			st.DropsNoRoute += atomic.LoadUint64(&m.drops[DropNoRoute][base+b])
			st.DropsTTL += atomic.LoadUint64(&m.drops[DropTTL][base+b])
			st.DropsFault += atomic.LoadUint64(&m.drops[DropFault][base+b])
			if fluid != nil {
				st.FluidBits += atomic.LoadUint64(&(*fluid)[base+b])
			}
		}
		if st.Bits == 0 && st.FluidBits == 0 && st.DropsTail+st.DropsNoRoute+st.DropsTTL+st.DropsFault == 0 {
			continue
		}
		if m.bandwidths != nil && m.bandwidths[st.Link] > 0 {
			bw := float64(m.bandwidths[st.Link])
			st.MeanUtil = float64(st.Bits) * float64(des.Second) / (bw * float64(m.horizon))
			st.PeakUtil = float64(peakBits) * float64(des.Second) / (bw * float64(m.bucketNS))
		}
		if series {
			st.BitsSeries = make([]uint64, buckets)
			st.QueueMaxSeries = make([]int64, buckets)
			st.DropsSeries = make([]uint64, buckets)
			for b := 0; b < buckets; b++ {
				st.BitsSeries[b] = atomic.LoadUint64(&m.bits[base+b])
				st.QueueMaxSeries[b] = atomic.LoadInt64(&m.qmax[base+b])
				for c := DropCause(0); c < numCauses; c++ {
					st.DropsSeries[b] += atomic.LoadUint64(&m.drops[c][base+b])
				}
			}
		}
		all = append(all, st)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Bits != all[j].Bits {
			return all[i].Bits > all[j].Bits
		}
		if all[i].Link != all[j].Link {
			return all[i].Link < all[j].Link
		}
		return all[i].Dir < all[j].Dir
	})
	if top > 0 && len(all) > top {
		kept := all[:top]
		for _, st := range all[top:] {
			if st.DropsTail+st.DropsNoRoute+st.DropsTTL+st.DropsFault > 0 {
				kept = append(kept, st)
			}
		}
		all = kept
	}
	rep.Links = all
	return rep
}

// FlowReport is the per-flow view plus the FCT distribution.
type FlowReport struct {
	Recorded int            `json:"recorded"`
	Overflow uint64         `json:"overflow,omitempty"`
	FCT      FCTHistogram   `json:"fct"`
	Flows    []FlowSnapshot `json:"flows"`
}

// FlowReport snapshots every recorded flow (with SRTT/cwnd trajectories
// when withSamples). Safe while the run is live.
func (m *Mon) FlowReport(withSamples bool) *FlowReport {
	m.flowMu.Lock()
	flows := append([]*FlowRec(nil), m.flows...)
	overflow := m.flowOverflow
	m.flowMu.Unlock()
	rep := &FlowReport{Recorded: len(flows), Overflow: overflow, FCT: m.fct.report()}
	rep.Flows = make([]FlowSnapshot, len(flows))
	for i, r := range flows {
		rep.Flows[i] = r.snapshot(withSamples)
	}
	return rep
}
