// Chrome-trace rendering of sampled packet paths: one extra process
// ("network paths") with one lane per traced packet, aligned with the
// engine tracks telemetry.BuildTraceEvents draws for the same run, so a
// packet's hops can be read against the barrier windows that carried them.
package netmon

import (
	"fmt"

	"massf/internal/telemetry"
)

// pathPID is the trace-event process id of the path lanes (the engine
// tracks use PID 1).
const pathPID = 2

// PathTraceEvents renders hop spans as Chrome trace events: a "network
// paths" process beside the engine tracks, one lane per traced packet,
// each hop a complete slice positioned by projecting its simulated-time
// span onto tl, the timeline the engine tracks are drawn on (the zero
// Timeline maps time identically, e.g. for a run traced without a
// telemetry ring).
func PathTraceEvents(spans []HopSpan, tl telemetry.Timeline) []telemetry.TraceEvent {
	if len(spans) == 0 {
		return nil
	}
	sorted := make([]HopSpan, len(spans))
	copy(sorted, spans)
	SortSpans(sorted)

	events := []telemetry.TraceEvent{{
		Name: "process_name", Ph: "M", PID: pathPID,
		Args: map[string]any{"name": "network paths"},
	}, {
		Name: "process_sort_index", Ph: "M", PID: pathPID,
		Args: map[string]any{"sort_index": 1},
	}}
	tid := -1
	var lastTrace uint64
	var cursor int64
	for i := range sorted {
		sp := &sorted[i]
		if tid < 0 || sp.Trace != lastTrace {
			tid++
			lastTrace = sp.Trace
			cursor = 0
			kind := "pkt"
			if sp.Ack {
				kind = "ack"
			}
			events = append(events, telemetry.TraceEvent{
				Name: "thread_name", Ph: "M", PID: pathPID, TID: tid,
				Args: map[string]any{"name": fmt.Sprintf("%s %d→%d #%x", kind, sp.Src, sp.Dst, sp.Trace)},
			}, telemetry.TraceEvent{
				Name: "thread_sort_index", Ph: "M", PID: pathPID, TID: tid,
				Args: map[string]any{"sort_index": tid},
			})
		}
		start := tl.At(int64(sp.Start))
		if start < cursor {
			start = cursor // viewers need strictly ordered slice starts
		}
		dur := tl.At(int64(sp.End)) - start
		if dur < 1 {
			dur = 1
		}
		name := string(sp.Kind)
		if sp.Kind == SpanHop {
			name = fmt.Sprintf("link %d", sp.Link)
		}
		events = append(events, telemetry.TraceEvent{
			Name: name, Ph: "X", PID: pathPID, TID: tid,
			TS: float64(start) / 1e3, Dur: float64(dur) / 1e3,
			Args: map[string]any{
				"trace":        fmt.Sprintf("%#x", sp.Trace),
				"node":         sp.Node,
				"link":         sp.Link,
				"seq":          sp.Seq,
				"ack":          sp.Ack,
				"engine":       sp.Engine,
				"sim_start_ns": int64(sp.Start),
				"sim_end_ns":   int64(sp.End),
			},
		})
		cursor = start + dur
	}
	return events
}
