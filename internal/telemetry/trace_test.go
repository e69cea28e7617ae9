package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
)

// syntheticRecords builds a plausible recorder output: engines tracks,
// windows records with compute/wait/exchange spans and a Seq gap in the
// middle (ring eviction).
func syntheticRecords(engines, windows int) []WindowRecord {
	recs := make([]WindowRecord, windows)
	seq := uint64(0)
	for w := range recs {
		if w == windows/2 && windows > 3 {
			seq += 3 // simulate evicted records
		}
		rec := WindowRecord{
			Seq:     seq,
			StartNS: int64(w) * 1e6,
			EndNS:   int64(w+1) * 1e6,
			WallNS:  50_000,
		}
		for e := 0; e < engines; e++ {
			rec.Events = append(rec.Events, uint64(100*(e+1)))
			rec.RemoteSends = append(rec.RemoteSends, uint64(e))
			rec.ComputeNS = append(rec.ComputeNS, int64(10_000*(e+1)))
			rec.BarrierWaitNS = append(rec.BarrierWaitNS, int64(5_000*(engines-e)))
			rec.ExchangeNS = append(rec.ExchangeNS, 2_000)
			rec.QueueDepth = append(rec.QueueDepth, 7)
		}
		recs[w] = rec
		seq++
	}
	return recs
}

// parseTrace unmarshals and structurally validates a Chrome trace-event
// JSON document: it must be an object with a traceEvents array. Shared
// with the e2e smoke test via the same expectations.
func parseTrace(t *testing.T, data []byte) (events []TraceEvent) {
	t.Helper()
	var doc struct {
		TraceEvents     []TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.TraceEvents == nil {
		t.Fatal("trace has no traceEvents array")
	}
	return doc.TraceEvents
}

func TestChromeTraceShape(t *testing.T) {
	const engines, windows = 3, 8
	recs := syntheticRecords(engines, windows)
	var buf bytes.Buffer
	if err := WriteChromeTraceEvents(&buf, BuildTraceEvents(recs, nil), map[string]string{"run": "r0001"}); err != nil {
		t.Fatal(err)
	}
	events := parseTrace(t, buf.Bytes())

	named := map[int]bool{}  // tids with a thread_name metadata event
	tracks := map[int]bool{} // tids carrying X slices
	lastTS := map[int]float64{}
	phases := map[string]int{}
	for _, ev := range events {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				named[ev.TID] = true
			}
		case "X":
			tracks[ev.TID] = true
			phases[ev.Name]++
			if ev.Name == "compute" {
				start, _ := ev.Args["start_ns"].(float64)
				end, ok := ev.Args["end_ns"].(float64)
				if !ok || end-start != 1e6 {
					t.Errorf("compute slice on tid %d names window [%v, %v), want its record's 1 ms interval",
						ev.TID, ev.Args["start_ns"], ev.Args["end_ns"])
				}
			}
			if ev.Dur <= 0 {
				t.Errorf("X event %q on tid %d has non-positive dur %g", ev.Name, ev.TID, ev.Dur)
			}
			if prev, ok := lastTS[ev.TID]; ok && ev.TS < prev {
				t.Errorf("tid %d: ts went backwards (%g after %g)", ev.TID, ev.TS, prev)
			}
			lastTS[ev.TID] = ev.TS
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if len(tracks) != engines {
		t.Errorf("got %d tracks, want one per engine (%d)", len(tracks), engines)
	}
	for tid := range tracks {
		if !named[tid] {
			t.Errorf("track %d has no thread_name metadata", tid)
		}
	}
	// Every window contributes all three phases on every engine.
	for _, ph := range []string{"compute", "barrier", "exchange"} {
		if phases[ph] != engines*windows {
			t.Errorf("phase %q: %d slices, want %d", ph, phases[ph], engines*windows)
		}
	}
}

func TestChromeTraceStrictlyOrderedStarts(t *testing.T) {
	// Overrunning phases (sum of spans far beyond WallNS) must not break
	// per-track ordering: the next window starts where they end.
	recs := syntheticRecords(2, 5)
	for i := range recs {
		recs[i].WallNS = 10 // much less than the phase durations
	}
	var buf bytes.Buffer
	if err := WriteChromeTraceEvents(&buf, BuildTraceEvents(recs, nil), nil); err != nil {
		t.Fatal(err)
	}
	last := map[int]float64{}
	for _, ev := range parseTrace(t, buf.Bytes()) {
		if ev.Ph != "X" {
			continue
		}
		if prev, ok := last[ev.TID]; ok && ev.TS <= prev {
			t.Fatalf("tid %d: starts not strictly increasing (%g after %g)", ev.TID, ev.TS, prev)
		}
		last[ev.TID] = ev.TS
	}
}

func TestChromeTraceSetupSpans(t *testing.T) {
	const engines = 3
	recs := syntheticRecords(engines, 4)
	// Worker 1 is the straggler: a 10× slower scenario rebuild.
	setup := []int64{1_000_000, 10_000_000, 1_000_000}
	events := BuildTraceEvents(recs, setup)

	setupEnd := map[int]float64{}
	firstWindow := map[int]float64{}
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		if ev.Name == "setup" {
			if ev.TS != 0 {
				t.Errorf("tid %d: setup slice starts at %g, want 0", ev.TID, ev.TS)
			}
			setupEnd[ev.TID] = ev.TS + ev.Dur
			continue
		}
		if _, ok := firstWindow[ev.TID]; !ok {
			firstWindow[ev.TID] = ev.TS
		}
	}
	if len(setupEnd) != engines {
		t.Fatalf("got %d setup slices, want one per engine (%d)", len(setupEnd), engines)
	}
	if got, want := setupEnd[1], float64(setup[1])/1e3; got != want {
		t.Errorf("straggler setup ends at %gµs, want %g", got, want)
	}
	// Every track's first window waits for the slowest setup.
	for tid, ts := range firstWindow {
		if ts < setupEnd[1] {
			t.Errorf("tid %d: first window at %gµs, before the slowest setup ends (%gµs)",
				tid, ts, setupEnd[1])
		}
	}
	// Zero/nil setup emits no setup slices (the pre-refactor shape).
	for _, ev := range BuildTraceEvents(recs, nil) {
		if ev.Name == "setup" {
			t.Fatal("BuildTraceEvents emitted a setup slice without setup spans")
		}
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTraceEvents(&buf, BuildTraceEvents(nil, nil), nil); err != nil {
		t.Fatal(err)
	}
	if evs := parseTrace(t, buf.Bytes()); len(evs) != 0 {
		t.Errorf("empty recording produced %d events", len(evs))
	}
}

func TestChromeTraceLastWindowBarrierFromNextRecord(t *testing.T) {
	// The barrier/exchange durations of window w come from record w+1;
	// a Seq gap must fall back to the 1 ns placeholder rather than pair
	// mismatched windows.
	recs := syntheticRecords(1, 2)
	recs[1].Seq = recs[0].Seq + 5 // gap
	recs[1].BarrierWaitNS = []int64{987_000}
	var buf bytes.Buffer
	if err := WriteChromeTraceEvents(&buf, BuildTraceEvents(recs, nil), nil); err != nil {
		t.Fatal(err)
	}
	for _, ev := range parseTrace(t, buf.Bytes()) {
		if ev.Ph == "X" && ev.Name == "barrier" && ev.Dur > 1 {
			t.Errorf("window inherited barrier span across a seq gap (dur %g µs)", ev.Dur)
		}
	}
}
