package main

import (
	"os"
	"path/filepath"
	"sync"
	"time"

	"massf/internal/telemetry"
)

// A tracer records one span around every call the harness makes into a
// layer. Spans stay in memory and are written once, when the run ends. The
// untraced run carries a nil tracer: every method is then a no-op, so the
// end-to-end numbers are measured with tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

// spanRec is one recorded span. parent is an index into tracer.spans (-1 for
// a root); op is the id shared by every span of one operation (-1 in
// set-up and probes); lane separates concurrent clients in the trace viewer.
type spanRec struct {
	name       string
	start, end time.Duration
	parent     int
	op, lane   int
}

// span is a handle to an open span; the zero span (from a nil tracer) is inert.
type span struct {
	t            *tracer
	id, op, lane int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) open(name string, parent, op, lane int) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{name: name, start: time.Since(t.t0), end: -1, parent: parent, op: op, lane: lane})
	return span{t: t, id: len(t.spans) - 1, op: op, lane: lane}
}

// root opens a parentless span; op is -1 outside operations.
func (t *tracer) root(name string, op, lane int) span { return t.open(name, -1, op, lane) }

// child opens a span caused by s, sharing its operation id and lane.
func (s span) child(name string) span { return s.t.open(name, s.id, s.op, s.lane) }

func (s span) end() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	s.t.spans[s.id].end = time.Since(s.t.t0)
	s.t.mu.Unlock()
}

// seconds returns the duration of every closed span called name.
func (t *tracer) seconds(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// coveredLocked returns, per span, the time its direct children cover.
func (t *tracer) coveredLocked() []time.Duration {
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	return covered
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover: the time the harness can attribute to that layer
// call alone.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := t.coveredLocked()
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.end >= 0 {
			self[s.name] += s.end - s.start - covered[i]
		}
	}
	return self
}

// coverage returns the share of all operations' wall time that their child
// spans cover, and the same share for the worst single operation: an
// untraced gap between layer calls shows as < 1.
func (t *tracer) coverage() (all, worst float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := t.coveredLocked()
	var in, wall time.Duration
	worst = 1
	for i, s := range t.spans {
		if s.parent == -1 && s.op >= 0 && s.end > s.start {
			in += covered[i]
			wall += s.end - s.start
			if c := float64(covered[i]) / float64(s.end-s.start); c < worst {
				worst = c
			}
		}
	}
	if wall == 0 {
		return 0, 0
	}
	return float64(in) / float64(wall), worst
}

// write emits the spans as Chrome trace JSON (loadable in ui.perfetto.dev).
func (t *tracer) write(path string, meta map[string]string) error {
	t.mu.Lock()
	events := make([]telemetry.TraceEvent, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, telemetry.TraceEvent{
			Name: s.name, Ph: "X",
			TS:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			PID: 1, TID: s.lane,
			Args: map[string]any{"span": i, "parent": s.parent, "op": s.op},
		})
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTraceEvents(f, events, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
