// Package flight analyzes a simulation flight recording — the per-window
// records the parallel engine publishes into the telemetry ring — and
// answers the question live aggregate counters cannot: which engine
// bounded each barrier window, and why. Per window it identifies the
// bounding (straggler) engine and the windowed parallel efficiency; per
// engine it breaks wall time into compute, barrier wait and exchange;
// and across the run it ranks the top-K straggler engines, optionally
// attributing each one's load to the simulated routers that dominate it
// (via the partition and measured per-node event counts).
//
// This is the diagnostic half of the paper's feedback loop: the same
// measured load that reveals a straggler is what PROF/HPROF feed back
// into the partitioner (internal/profile) to eliminate it.
package flight

import (
	"fmt"
	"io"
	"sort"

	"massf/internal/telemetry"
)

// WindowAnalysis is one barrier window's diagnosis.
type WindowAnalysis struct {
	// Seq identifies the record, and StartNS and EndNS bound its window
	// in simulated time (see telemetry.WindowRecord).
	Seq     uint64 `json:"seq"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// BoundingEngine did the most compute work this window — everyone
	// else waited for it at the barrier.
	BoundingEngine int `json:"bounding_engine"`
	// BoundingNS is the bounding engine's compute span.
	BoundingNS int64 `json:"bounding_ns"`
	// MeanComputeNS is the average compute span across engines.
	MeanComputeNS int64 `json:"mean_compute_ns"`
	// Efficiency is the window's parallel efficiency: mean/max compute.
	// 1.0 means perfectly balanced; 1/N means one engine did everything.
	Efficiency float64 `json:"efficiency"`
	// WallNS is the window's host wall time.
	WallNS int64 `json:"wall_ns"`
}

// RouterLoad names one simulated node and its share of an engine's
// measured load.
type RouterLoad struct {
	Node   int     `json:"node"`
	Events uint64  `json:"events"`
	Share  float64 `json:"share"`
}

// EngineBreakdown aggregates one engine over the whole recording.
type EngineBreakdown struct {
	Engine int `json:"engine"`
	// ComputeNS, BarrierNS and ExchangeNS partition the engine's
	// recorded wall time into the three phases.
	ComputeNS  int64 `json:"compute_ns"`
	BarrierNS  int64 `json:"barrier_ns"`
	ExchangeNS int64 `json:"exchange_ns"`
	// Events and RemoteSends total the engine's work.
	Events      uint64 `json:"events"`
	RemoteSends uint64 `json:"remote_sends"`
	// WindowsBounded counts windows where this engine was the straggler.
	WindowsBounded int `json:"windows_bounded"`
	// ExcessNS sums (compute − window mean) over the windows this engine
	// bounded: the wall time its imbalance cost the whole simulation.
	ExcessNS int64 `json:"excess_ns"`
	// TopRouters attributes the engine's load to its hottest simulated
	// nodes (filled by AttributeRouters when a partition and per-node
	// event counts are available).
	TopRouters []RouterLoad `json:"top_routers,omitempty"`
}

// Report is the full straggler/critical-path analysis of a recording.
type Report struct {
	// Engines is the track count of the recording.
	Engines int `json:"engines"`
	// WindowsAnalyzed counts the records examined; RecordsMissing is how
	// many were evicted from the bounded ring before the snapshot (Seq
	// gaps), so consumers know when the analysis covers a suffix only.
	WindowsAnalyzed int    `json:"windows_analyzed"`
	RecordsMissing  uint64 `json:"records_missing"`
	// MeanEfficiency averages the per-window parallel efficiency.
	MeanEfficiency float64 `json:"mean_efficiency"`
	// TotalComputeNS / TotalBarrierNS / TotalExchangeNS break the whole
	// run's engine-time into phases (summed over engines).
	TotalComputeNS  int64 `json:"total_compute_ns"`
	TotalBarrierNS  int64 `json:"total_barrier_ns"`
	TotalExchangeNS int64 `json:"total_exchange_ns"`
	// Windows is the per-window series, oldest first.
	Windows []WindowAnalysis `json:"windows"`
	// PerEngine is indexed by engine ID.
	PerEngine []EngineBreakdown `json:"per_engine"`
	// Stragglers ranks engines by the wall time their imbalance cost
	// (ExcessNS, ties broken by windows bounded), worst first, truncated
	// to the analyzer's top-K.
	Stragglers []EngineBreakdown `json:"stragglers"`
}

// computeSpan returns engine e's work measure in rec: the measured
// compute wall time when the recorder captured it, else the event count
// (synthetic or legacy recordings) scaled to keep comparisons meaningful.
func computeSpan(rec *telemetry.WindowRecord, e int) int64 {
	if e < len(rec.ComputeNS) && rec.ComputeNS[e] > 0 {
		return rec.ComputeNS[e]
	}
	if e < len(rec.Events) {
		return int64(rec.Events[e])
	}
	return 0
}

// Analyze diagnoses a recording (oldest first, as returned by
// Ring.Snapshot). topK bounds the straggler ranking (≤ 0 means 3).
func Analyze(recs []telemetry.WindowRecord, topK int) *Report {
	if topK <= 0 {
		topK = 3
	}
	engines := 0
	for i := range recs {
		if n := len(recs[i].Events); n > engines {
			engines = n
		}
	}
	rep := &Report{Engines: engines, WindowsAnalyzed: len(recs)}
	if engines == 0 || len(recs) == 0 {
		return rep
	}
	rep.PerEngine = make([]EngineBreakdown, engines)
	for e := range rep.PerEngine {
		rep.PerEngine[e].Engine = e
	}
	var effSum float64
	var prevSeq uint64
	for i := range recs {
		rec := &recs[i]
		if i > 0 && rec.Seq > prevSeq+1 {
			rep.RecordsMissing += rec.Seq - prevSeq - 1
		}
		prevSeq = rec.Seq

		var sum, max int64
		bounding := 0
		for e := 0; e < engines; e++ {
			span := computeSpan(rec, e)
			sum += span
			if span > max {
				max, bounding = span, e
			}
			pe := &rep.PerEngine[e]
			if e < len(rec.ComputeNS) {
				pe.ComputeNS += rec.ComputeNS[e]
			}
			if e < len(rec.BarrierWaitNS) {
				pe.BarrierNS += rec.BarrierWaitNS[e]
			}
			if e < len(rec.ExchangeNS) {
				pe.ExchangeNS += rec.ExchangeNS[e]
			}
			if e < len(rec.Events) {
				pe.Events += rec.Events[e]
			}
			if e < len(rec.RemoteSends) {
				pe.RemoteSends += rec.RemoteSends[e]
			}
		}
		mean := sum / int64(engines)
		eff := 1.0
		if max > 0 {
			eff = float64(sum) / (float64(engines) * float64(max))
		}
		effSum += eff
		rep.PerEngine[bounding].WindowsBounded++
		rep.PerEngine[bounding].ExcessNS += max - mean
		rep.Windows = append(rep.Windows, WindowAnalysis{
			Seq: rec.Seq, StartNS: rec.StartNS, EndNS: rec.EndNS,
			BoundingEngine: bounding, BoundingNS: max,
			MeanComputeNS: mean, Efficiency: eff, WallNS: rec.WallNS,
		})
	}
	rep.MeanEfficiency = effSum / float64(len(recs))
	for e := range rep.PerEngine {
		rep.TotalComputeNS += rep.PerEngine[e].ComputeNS
		rep.TotalBarrierNS += rep.PerEngine[e].BarrierNS
		rep.TotalExchangeNS += rep.PerEngine[e].ExchangeNS
	}
	ranked := append([]EngineBreakdown(nil), rep.PerEngine...)
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].ExcessNS != ranked[b].ExcessNS {
			return ranked[a].ExcessNS > ranked[b].ExcessNS
		}
		if ranked[a].WindowsBounded != ranked[b].WindowsBounded {
			return ranked[a].WindowsBounded > ranked[b].WindowsBounded
		}
		return ranked[a].Engine < ranked[b].Engine
	})
	if len(ranked) > topK {
		ranked = ranked[:topK]
	}
	rep.Stragglers = ranked
	return rep
}

// AttributeRouters names the simulated nodes that dominate each straggler
// engine's load: part assigns node → engine (the run's partition) and
// nodeEvents is the measured per-node event count (a captured
// profile.Profile or netsim.Result). The top k nodes per straggler are
// recorded with their share of the engine's total. Both the ranked
// stragglers and the matching PerEngine entries are annotated.
func (r *Report) AttributeRouters(part []int32, nodeEvents []uint64, k int) {
	if len(part) == 0 || len(nodeEvents) == 0 || len(part) != len(nodeEvents) {
		return
	}
	if k <= 0 {
		k = 5
	}
	for i := range r.Stragglers {
		e := r.Stragglers[i].Engine
		var loads []RouterLoad
		var total uint64
		for n, eng := range part {
			if int(eng) != e || nodeEvents[n] == 0 {
				continue
			}
			loads = append(loads, RouterLoad{Node: n, Events: nodeEvents[n]})
			total += nodeEvents[n]
		}
		sort.Slice(loads, func(a, b int) bool {
			if loads[a].Events != loads[b].Events {
				return loads[a].Events > loads[b].Events
			}
			return loads[a].Node < loads[b].Node
		})
		if len(loads) > k {
			loads = loads[:k]
		}
		for j := range loads {
			if total > 0 {
				loads[j].Share = float64(loads[j].Events) / float64(total)
			}
		}
		r.Stragglers[i].TopRouters = loads
		if e < len(r.PerEngine) {
			r.PerEngine[e].TopRouters = loads
		}
	}
}

// WriteText renders the report as a human-readable summary: the run-wide
// phase breakdown, the efficiency series' envelope, and the straggler
// ranking with any router attribution.
func (r *Report) WriteText(w io.Writer) error {
	if r.Engines == 0 || r.WindowsAnalyzed == 0 {
		_, err := fmt.Fprintln(w, "flight: empty recording")
		return err
	}
	total := r.TotalComputeNS + r.TotalBarrierNS + r.TotalExchangeNS
	pct := func(v int64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(v) / float64(total)
	}
	fmt.Fprintf(w, "flight recording: %d engines, %d windows analyzed", r.Engines, r.WindowsAnalyzed)
	if r.RecordsMissing > 0 {
		fmt.Fprintf(w, " (%d evicted)", r.RecordsMissing)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "mean windowed parallel efficiency: %.3f\n", r.MeanEfficiency)
	fmt.Fprintf(w, "engine time: compute %.1f%%, barrier %.1f%%, exchange %.1f%%\n",
		pct(r.TotalComputeNS), pct(r.TotalBarrierNS), pct(r.TotalExchangeNS))
	var worst *WindowAnalysis
	for i := range r.Windows {
		if worst == nil || r.Windows[i].Efficiency < worst.Efficiency {
			worst = &r.Windows[i]
		}
	}
	if worst != nil {
		fmt.Fprintf(w, "worst window: [%.3f, %.3f) ms bounded by engine %d (efficiency %.3f, %.2f ms compute vs %.2f ms mean)\n",
			float64(worst.StartNS)/1e6, float64(worst.EndNS)/1e6, worst.BoundingEngine, worst.Efficiency,
			float64(worst.BoundingNS)/1e6, float64(worst.MeanComputeNS)/1e6)
	}
	fmt.Fprintf(w, "top stragglers:\n")
	for i, s := range r.Stragglers {
		fmt.Fprintf(w, "  %d. engine %d — bounded %d/%d windows, cost %.2f ms excess, %d events (%d remote)\n",
			i+1, s.Engine, s.WindowsBounded, r.WindowsAnalyzed,
			float64(s.ExcessNS)/1e6, s.Events, s.RemoteSends)
		for _, rl := range s.TopRouters {
			fmt.Fprintf(w, "       node %d: %d events (%.1f%% of engine load)\n",
				rl.Node, rl.Events, 100*rl.Share)
		}
	}
	return nil
}
