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
// Track timelines are synthesized from the records' wall-clock deltas:
// window w+1 starts WallNS after window w. Within a track, slice starts
// are strictly ordered (a per-engine cursor absorbs measurement jitter
// where a window's phases overrun its wall time), which is what trace
// viewers require.
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
	cursor := make([]int64, engines) // per-track monotonic frontier, ns
	var base int64                   // window start on the synthetic timeline, ns
	for e := 0; e < engines && e < len(setupNS); e++ {
		if setupNS[e] <= 0 {
			continue
		}
		cursor[e] = appendSlice(&events, phaseSetup, e, 0, setupNS[e],
			map[string]any{"setup_ns": setupNS[e]})
		if cursor[e] > base {
			base = cursor[e] // first window starts after the slowest setup
		}
	}
	for i := range recs {
		rec := &recs[i]
		// Barrier/exchange spans for this window live in the next record.
		var wait, exch []int64
		if i+1 < len(recs) && recs[i+1].Seq == rec.Seq+1 {
			wait, exch = recs[i+1].BarrierWaitNS, recs[i+1].ExchangeNS
		}
		for e := 0; e < len(rec.Events) && e < engines; e++ {
			at := base
			if cursor[e] > at {
				at = cursor[e]
			}
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
			at = appendSlice(&events, phaseCompute, e, at, idx64(rec.ComputeNS, e), args)
			at = appendSlice(&events, phaseBarrier, e, at, idx64(wait, e), nil)
			at = appendSlice(&events, phaseExchange, e, at, idx64(exch, e), nil)
			cursor[e] = at
		}
		wall := rec.WallNS
		if wall < 1 {
			wall = 1 // keep window starts strictly increasing
		}
		base += wall
	}
	return events
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
	if durNS < 1 {
		durNS = 1
	}
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
