// Package metrics computes the paper's four evaluation metrics (Section
// 4.1): application simulation time, achieved minimum link latency, load
// imbalance, and parallel efficiency.
package metrics

import (
	"math"

	"massf/internal/des"
	"massf/internal/pdes"
)

// LoadImbalance is the paper's third metric: the normalized standard
// deviation (coefficient of variation) of the per-engine kernel event
// rates k1..kn. Zero means perfect balance.
func LoadImbalance(engineEvents []uint64) float64 {
	n := len(engineEvents)
	if n == 0 {
		return 0
	}
	var total float64
	for _, k := range engineEvents {
		total += float64(k)
	}
	mean := total / float64(n)
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, k := range engineEvents {
		d := float64(k) - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(n)) / mean
}

// parallelEfficiency is the paper's fourth metric, unclamped:
//
//	PE(N, L) = Tseq(L) / (N · T(L, N))
//
// where T is the (modeled) parallel runtime and Tseq is estimated as
// TotalEventNumber / MaximalEventRateOnEachNode — with a per-event cost c,
// the maximal per-node event rate is 1/c, so Tseq = TotalEvents · c.
//
// By definition PE cannot exceed 1; the Tseq *estimate* can, though, when
// the modeled parallel time omits costs the estimate charges (the
// degenerate single-engine case: T excludes sync, yet remote costs are
// zero, so Tseq = N·T exactly only if EventCost matches). FromStats
// therefore clamps it to [0, 1] and flags the clamp in Report.PEClamped.
func parallelEfficiency(totalEvents uint64, eventCost des.Time, engines int, parallelTimeNS int64) float64 {
	if parallelTimeNS <= 0 || engines <= 0 {
		return 0
	}
	tseq := float64(totalEvents) * float64(eventCost)
	return tseq / (float64(engines) * float64(parallelTimeNS))
}

// Report bundles the paper's metrics for one simulation run under one
// mapping approach.
// The JSON field names are snake_case, matching every other object on the
// daemon's API surface (Info, NetSummary).
type Report struct {
	// Approach names the mapping (TOP2, PROF2, HTOP, HPROF, …).
	Approach string `json:"approach"`
	// SimTimeSec is the modeled application simulation time T in seconds
	// (Figures 6 and 10).
	SimTimeSec float64 `json:"sim_time_sec"`
	// AchievedMLLms is the partition's achieved MLL in milliseconds
	// (Figures 7 and 11).
	AchievedMLLms float64 `json:"achieved_mll_ms"`
	// Imbalance is the normalized load imbalance (Figures 8 and 12).
	Imbalance float64 `json:"imbalance"`
	// Efficiency is PE(N, L) (Figures 9 and 13), clamped to [0, 1].
	Efficiency float64 `json:"efficiency"`
	// PEClamped flags that the raw efficiency estimate exceeded 1 and was
	// clamped — the Tseq estimate overshot the modeled parallel time
	// (typically the degenerate single-engine case, where no
	// synchronization or remote cost is charged).
	PEClamped bool `json:"pe_clamped,omitempty"`
	// WallSec is the real host wall-clock time of the run (informational;
	// the host is not a 90-node cluster).
	WallSec float64 `json:"wall_sec"`
	// TotalEvents and RemoteEvents describe the run's size.
	TotalEvents  uint64 `json:"total_events"`
	RemoteEvents uint64 `json:"remote_events"`
}

// FromStats assembles a Report from engine statistics.
func FromStats(approach string, st pdes.Stats, eventCost des.Time) Report {
	raw := parallelEfficiency(st.TotalEvents, eventCost, st.Engines, st.ModeledTimeNS)
	rep := Report{
		Approach:      approach,
		SimTimeSec:    float64(st.ModeledTimeNS) / 1e9,
		AchievedMLLms: st.Window.Millis(),
		Imbalance:     LoadImbalance(st.EngineEvents),
		Efficiency:    raw,
		WallSec:       st.WallTime.Seconds(),
		TotalEvents:   st.TotalEvents,
		RemoteEvents:  st.RemoteEvents,
	}
	if raw > 1 {
		rep.Efficiency = 1
		rep.PEClamped = true
	}
	return rep
}

// Improvement returns the relative improvement of b over a for a
// lower-is-better quantity, e.g. Improvement(timeTOP2, timeHPROF) = 0.4
// means HPROF is 40% faster.
func Improvement(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (a - b) / a
}
