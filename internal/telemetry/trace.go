// Chrome trace-event export of the per-window trace ring: the flight
// recorder's wire format. The emitted JSON loads directly into Perfetto
// (ui.perfetto.dev) or chrome://tracing and renders one track per
// simulation engine, with a complete ("X") slice per phase of every
// barrier window — compute, barrier wait, exchange — so stragglers and
// barrier-dominated windows are visible at a glance.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// TraceEvent is one entry of the Chrome Trace Event Format (the subset
// Perfetto's JSON importer consumes). Timestamps and durations are in
// microseconds, per the format's convention.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container variant of the format.
type chromeTrace struct {
	TraceEvents     []TraceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// tracePhases are the per-engine slice names emitted for every window,
// plus the one-off setup span that precedes a track's first window.
const (
	phaseSetup    = "setup"
	phaseCompute  = "compute"
	phaseBarrier  = "barrier"
	phaseExchange = "exchange"
)

// BuildTraceEvents converts window records (oldest first, as returned by
// Ring.Snapshot) into Chrome trace events: one metadata-named track per
// engine, and per window three complete slices per engine — compute,
// barrier wait, and exchange.
//
// The recorder publishes an engine's barrier wait and exchange time one
// window late (they are only known after the window's record is
// appended), so the slices for window w take their barrier/exchange
// durations from the following record when it is contiguous (Seq+1);
// the trailing window renders with compute only.
//
// Every track is laid on one synthetic timeline (see Timeline): window
// w starts at the same point on every track, and its phases follow one
// another from there, so within a track slice starts are strictly
// ordered, which is what trace viewers require.
//
// setupNS adds a leading "setup" slice on each engine track: setupNS[e] is
// the wall time engine e's worker spent materializing its scenario before
// the first event ran. Windows start once the slowest setup finishes, so a
// straggling rebuild shows as the long setup bar every other track waits
// on. A nil or all-zero setupNS emits no setup slices; on a single-process
// run every engine shares one build, so callers typically broadcast the
// same duration to all tracks.
func BuildTraceEvents(recs []WindowRecord, setupNS []int64) []TraceEvent {
	engines := 0
	for i := range recs {
		if n := len(recs[i].Events); n > engines {
			engines = n
		}
	}
	if engines == 0 {
		return nil
	}
	events := make([]TraceEvent, 0, 2+engines+3*engines*len(recs))
	events = append(events, TraceEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "massf simulation"},
	})
	for e := 0; e < engines; e++ {
		events = append(events,
			TraceEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: e,
				Args: map[string]any{"name": fmt.Sprintf("engine %d", e)},
			},
			TraceEvent{
				Name: "thread_sort_index", Ph: "M", PID: 1, TID: e,
				Args: map[string]any{"sort_index": e},
			})
	}
	for e := 0; e < engines && e < len(setupNS); e++ {
		if setupNS[e] > 0 {
			appendSlice(&events, phaseSetup, e, 0, setupNS[e],
				map[string]any{"setup_ns": setupNS[e]})
		}
	}
	tl := NewTimeline(recs, setupNS)
	for i := range recs {
		rec := &recs[i]
		wait, exch := phaseSpans(recs, i)
		for e := range rec.Events {
			args := map[string]any{
				"seq":      rec.Seq,
				"start_ns": rec.StartNS,
				"end_ns":   rec.EndNS,
				"events":   rec.Events[e],
			}
			if e < len(rec.RemoteSends) {
				args["remote_sends"] = rec.RemoteSends[e]
			}
			if e < len(rec.QueueDepth) {
				args["queue_depth"] = rec.QueueDepth[e]
			}
			at := appendSlice(&events, phaseCompute, e, tl.start[i], idx64(rec.ComputeNS, e), args)
			at = appendSlice(&events, phaseBarrier, e, at, idx64(wait, e), nil)
			appendSlice(&events, phaseExchange, e, at, idx64(exch, e), nil)
		}
	}
	return events
}

// phaseSpans returns window i's per-engine barrier wait and exchange
// spans, which the recorder publishes in the next record; a window whose
// next record is missing (the last, or one before an eviction gap) has
// none.
func phaseSpans(recs []WindowRecord, i int) (wait, exch []int64) {
	if i+1 < len(recs) && recs[i+1].Seq == recs[i].Seq+1 {
		return recs[i+1].BarrierWaitNS, recs[i+1].ExchangeNS
	}
	return nil, nil
}

// Timeline is the synthetic timeline BuildTraceEvents lays the engine
// tracks on, synthesized from the records' wall-clock deltas. The first
// window starts once the slowest setup span ends, and window w+1 starts
// max(WallNS, 1) after window w, or where the last of window w's phase
// slices ends if that is later. At maps simulated time onto it, so lanes
// drawn beside the engine tracks (netmon's packet paths) line up with the
// windows that carried them.
type Timeline struct {
	recs  []WindowRecord
	start []int64 // start[i]: recs[i]'s start, ns; start[len(recs)]: the end
}

// NewTimeline lays out recs (oldest first) after the setup spans setupNS
// (nil for none) as BuildTraceEvents does.
func NewTimeline(recs []WindowRecord, setupNS []int64) Timeline {
	tl := Timeline{recs: recs, start: make([]int64, len(recs)+1)}
	var at int64
	for _, s := range setupNS {
		at = max(at, s)
	}
	for i := range recs {
		tl.start[i] = at
		rec := &recs[i]
		wait, exch := phaseSpans(recs, i)
		next := at + max(rec.WallNS, 1)
		for e := range rec.Events {
			end := at + max(idx64(rec.ComputeNS, e), 1) + max(idx64(wait, e), 1) + max(idx64(exch, e), 1)
			next = max(next, end)
		}
		at = next
	}
	tl.start[len(recs)] = at
	return tl
}

// At maps simulated time simNS onto the timeline: linear interpolation
// inside the window that covers it, clamped to the next window's start
// across the idle gaps the engines fast-forward over, and to the end past
// the last window. A Timeline without records maps time identically.
func (tl Timeline) At(simNS int64) int64 {
	if len(tl.recs) == 0 {
		return simNS
	}
	i := sort.Search(len(tl.recs), func(i int) bool { return tl.recs[i].EndNS > simNS })
	if i == len(tl.recs) {
		return tl.start[i]
	}
	rec := &tl.recs[i]
	if simNS <= rec.StartNS {
		return tl.start[i]
	}
	return tl.start[i] + (simNS-rec.StartNS)*(tl.start[i+1]-tl.start[i])/(rec.EndNS-rec.StartNS)
}

func idx64(s []int64, i int) int64 {
	if i < len(s) {
		return s[i]
	}
	return 0
}

// appendSlice emits one complete ("X") slice of durNS nanoseconds at
// startNS on engine e's track and returns the slice's end. Zero-duration
// phases are still emitted (with the 1 ns minimum Perfetto accepts) so
// every window shows all three phases; the per-track cursor keeps starts
// strictly monotonic regardless.
func appendSlice(events *[]TraceEvent, name string, e int, startNS, durNS int64, args map[string]any) int64 {
	durNS = max(durNS, 1)
	*events = append(*events, TraceEvent{
		Name: name, Ph: "X", PID: 1, TID: e,
		TS: float64(startNS) / 1e3, Dur: float64(durNS) / 1e3,
		Args: args,
	})
	return startNS + durNS
}

// WriteChromeTraceEvents renders trace events as a Chrome trace-event JSON
// object — loadable in Perfetto — with run-level metadata attached. The
// events are BuildTraceEvents' engine tracks, optionally joined by lanes
// built elsewhere (e.g. netmon's sampled packet paths).
func WriteChromeTraceEvents(w io.Writer, events []TraceEvent, meta map[string]string) error {
	trace := chromeTrace{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		OtherData:       meta,
	}
	if trace.TraceEvents == nil {
		trace.TraceEvents = []TraceEvent{} // "traceEvents" must be an array
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&trace)
}
