package netmon

import (
	"testing"

	"massf/internal/des"
	"massf/internal/telemetry"
)

func TestLinkSeriesAndReport(t *testing.T) {
	// 64 buckets of 10 ms.
	m := New(Options{
		Links: 2, Horizon: 640 * des.Millisecond,
		Bandwidths: []int64{1_000_000_000, 1_000_000_000},
	})
	// Direction 0 of link 0 carries traffic in two buckets; direction 1 of
	// link 1 drops.
	m.LinkSend(0, 5*des.Millisecond, 8000, 1000)
	m.LinkSend(0, 5*des.Millisecond, 8000, 500) // lower queue: high-water stays
	m.LinkSend(0, 635*des.Millisecond, 16000, 2500)
	m.LinkSend(0, 700*des.Millisecond, 8, 0) // past horizon clamps to last bucket
	m.LinkDrop(3, 15*des.Millisecond, DropTail)
	m.LinkDrop(3, 15*des.Millisecond, DropFault)
	m.LinkDrop(-1, 0, DropNoRoute) // unattributed: totals only

	rep := m.LinkReport(0, true)
	if rep.Buckets != 64 || rep.BucketNS != 10*int64(des.Millisecond) {
		t.Fatalf("report shape: %+v", rep)
	}
	if len(rep.Links) != 2 {
		t.Fatalf("want 2 active directions, got %d: %+v", len(rep.Links), rep.Links)
	}
	d0 := rep.Links[0] // most bits first
	if d0.Link != 0 || d0.Dir != 0 || d0.Bits != 32008 || d0.QueueMaxNS != 2500 {
		t.Errorf("dir0 stats: %+v", d0)
	}
	if d0.BitsSeries[0] != 16000 || d0.BitsSeries[63] != 16008 {
		t.Errorf("bits series: %v", d0.BitsSeries)
	}
	if d0.QueueMaxSeries[0] != 1000 || d0.QueueMaxSeries[63] != 2500 {
		t.Errorf("queue series: %v", d0.QueueMaxSeries)
	}
	if d0.MeanUtil <= 0 || d0.PeakUtil <= d0.MeanUtil {
		t.Errorf("utilization: mean %v peak %v", d0.MeanUtil, d0.PeakUtil)
	}
	d1 := rep.Links[1]
	if d1.Link != 1 || d1.Dir != 1 || d1.DropsTail != 1 || d1.DropsFault != 1 || d1.DropsSeries[1] != 2 {
		t.Errorf("dropping dir stats: %+v", d1)
	}

	// top=1 keeps the busiest direction but retains dropping ones.
	top := m.LinkReport(1, false)
	if len(top.Links) != 2 || top.Links[1].DropsTail != 1 {
		t.Errorf("top filter lost the dropping direction: %+v", top.Links)
	}

	sum := m.Summary()
	if sum.DropsTail != 1 || sum.DropsFault != 1 || sum.DropsNoRoute != 1 || sum.DropsTTL != 0 {
		t.Errorf("summary drop split: %+v", sum)
	}
}

func TestSampleTraceDeterministic(t *testing.T) {
	m := New(Options{Links: 1, Horizon: des.Second, SampleEvery: 4})
	if !m.Sampling() {
		t.Fatal("Sampling() false with stride 4")
	}
	sampled := 0
	for i := 0; i < 4096; i++ {
		id := m.SampleTrace(1, 2, int32(i), false, 12000, des.Time(i*1000))
		if id != m.SampleTrace(1, 2, int32(i), false, 12000, des.Time(i*1000)) {
			t.Fatal("SampleTrace is not a pure function of packet identity")
		}
		if id != 0 {
			sampled++
		}
	}
	// Stride 4 should pick roughly a quarter; allow a wide band.
	if sampled < 4096/8 || sampled > 4096/2 {
		t.Errorf("stride-4 sampled %d of 4096", sampled)
	}

	all := New(Options{Links: 1, Horizon: des.Second, SampleEvery: 1})
	for i := 0; i < 64; i++ {
		if all.SampleTrace(9, 7, int32(i), true, 320, 0) == 0 {
			t.Fatal("stride 1 must sample every packet with a nonzero id")
		}
	}

	off := New(Options{Links: 1, Horizon: des.Second})
	if off.Sampling() || off.SampleTrace(1, 2, 3, false, 4, 5) != 0 {
		t.Error("stride 0 must sample nothing")
	}
}

func TestFlowLifecycle(t *testing.T) {
	m := New(Options{Links: 1, Horizon: des.Second})
	m.maxFlows = 2
	r := m.FlowStarted(des.Millisecond, 1, 2, 1_000_000)
	if r == nil {
		t.Fatal("first record nil")
	}
	r.Retransmit()
	r.Retransmit()
	r.FirstByteAt(2 * des.Millisecond)
	r.FirstByteAt(3 * des.Millisecond) // only the first call sticks
	for i := 0; i < 1000; i++ {
		r.Sample(des.Time(i)*des.Millisecond, float64(i*1000), float64(i))
	}
	m.FlowCompleted(r, 101*des.Millisecond)

	rep := m.FlowReport(true)
	if rep.Recorded != 1 || rep.FCT.Count != 1 {
		t.Fatalf("flow report: %+v", rep)
	}
	f := rep.Flows[0]
	if f.Src != 1 || f.Dst != 2 || f.Bytes != 1_000_000 || f.Retransmits != 2 {
		t.Errorf("flow snapshot: %+v", f)
	}
	if f.FirstByteNS != int64(2*des.Millisecond) {
		t.Errorf("first byte %d", f.FirstByteNS)
	}
	if f.FCTNS != int64(100*des.Millisecond) {
		t.Errorf("fct %d", f.FCTNS)
	}
	// 1 MB in 100 ms = 80 Mbit/s goodput.
	if f.GoodputBps < 79e6 || f.GoodputBps > 81e6 {
		t.Errorf("goodput %v", f.GoodputBps)
	}
	if len(f.Samples) == 0 || len(f.Samples) > maxFlowSamples+1 {
		t.Fatalf("samples not bounded: %d", len(f.Samples))
	}
	for i := 1; i < len(f.Samples); i++ {
		if f.Samples[i].At <= f.Samples[i-1].At {
			t.Fatal("decimated samples out of order")
		}
	}

	// Overflow: the third record is refused and counted.
	if m.FlowStarted(0, 3, 4, 1) == nil {
		t.Fatal("second record nil")
	}
	if m.FlowStarted(0, 5, 6, 1) != nil {
		t.Fatal("overflow record not refused")
	}
	if s := m.Summary(); s.FlowOverflow != 1 || s.FlowsRecorded != 2 || s.FlowsCompleted != 1 {
		t.Errorf("summary: %+v", s)
	}
}

func TestFCTHistogramPercentiles(t *testing.T) {
	var h fctHist
	for i := 0; i < 90; i++ {
		h.observe(1000) // ~1 µs
	}
	for i := 0; i < 10; i++ {
		h.observe(1_000_000) // ~1 ms
	}
	rep := h.report()
	if rep.Count != 100 || len(rep.Buckets) != 2 {
		t.Fatalf("histogram: %+v", rep)
	}
	if rep.P50NS < 1000 || rep.P50NS > 2048 {
		t.Errorf("p50 %d", rep.P50NS)
	}
	if rep.P99NS < 1_000_000 || rep.P99NS > 2_097_152 {
		t.Errorf("p99 %d", rep.P99NS)
	}
	if rep.P50NS > rep.P90NS || rep.P90NS > rep.P99NS {
		t.Errorf("percentiles not monotone: %+v", rep)
	}
}

func TestSpansSortGroupAndBound(t *testing.T) {
	m := New(Options{Links: 4, Horizon: des.Second})
	m.maxSpans = 3
	m.Span(HopSpan{Trace: 7, Src: 0, Dst: 3, Node: 1, Link: 1, Kind: SpanHop, Start: 20, End: 30})
	m.Span(HopSpan{Trace: 7, Src: 0, Dst: 3, Node: 0, Link: 0, Kind: SpanHop, Start: 10, End: 20})
	m.Span(HopSpan{Trace: 2, Src: 5, Dst: 6, Node: 6, Link: -1, Kind: SpanDeliver, Start: 40, End: 40})
	m.Span(HopSpan{Trace: 9, Src: 0, Dst: 0, Node: 0, Link: -1, Kind: SpanDeliver, Start: 1, End: 1}) // over bound

	spans := m.Spans()
	if len(spans) != 3 {
		t.Fatalf("span bound not enforced: %d", len(spans))
	}
	if spans[0].Trace != 2 || spans[1].Trace != 7 || spans[2].Trace != 7 || spans[1].Start != 10 {
		t.Errorf("spans not sorted: %+v", spans)
	}
	if s := m.Summary(); s.SpanOverflow != 1 || s.Spans != 3 {
		t.Errorf("summary spans: %+v", s)
	}

	paths := m.Paths()
	if len(paths) != 2 {
		t.Fatalf("paths: %+v", paths)
	}
	if paths[1].Trace != 7 || len(paths[1].Spans) != 2 || paths[1].Src != 0 || paths[1].Dst != 3 {
		t.Errorf("grouped path: %+v", paths[1])
	}
}

func TestCompletionStream(t *testing.T) {
	m := New(Options{Links: 1, Horizon: des.Second})
	r1 := m.FlowStarted(0, 1, 2, 100)
	m.FlowCompleted(r1, des.Millisecond)

	past, ch, cancel := m.SubscribeCompletions(4)
	defer cancel()
	if len(past) != 1 || past[0].Src != 1 {
		t.Fatalf("replay: %+v", past)
	}
	r2 := m.FlowStarted(0, 3, 4, 100)
	m.FlowCompleted(r2, 2*des.Millisecond)
	got := <-ch
	if got.Src != 3 || got.FCTNS != int64(2*des.Millisecond) {
		t.Fatalf("live completion: %+v", got)
	}
	m.Close()
	if _, open := <-ch; open {
		t.Fatal("stream not closed by Close")
	}
	// Subscribing after Close replays and returns a closed channel.
	past, ch2, cancel2 := m.SubscribeCompletions(4)
	defer cancel2()
	if len(past) != 2 {
		t.Fatalf("post-close replay: %d", len(past))
	}
	if _, open := <-ch2; open {
		t.Fatal("post-close subscription channel open")
	}
}

// TestPathTraceAlignsWithEngineTracks: a hop that starts at a window's
// StartNS lands where BuildTraceEvents draws that window's compute slices,
// after a setup span, across a zero-wall window whose phase slices outlast
// it, and across an idle gap in simulated time.
func TestPathTraceAlignsWithEngineTracks(t *testing.T) {
	win := func(seq uint64, start, end, wall int64) telemetry.WindowRecord {
		return telemetry.WindowRecord{
			Seq: seq, StartNS: start, EndNS: end, WallNS: wall,
			Events: []uint64{3, 4}, ComputeNS: []int64{400, 300},
			BarrierWaitNS: []int64{100, 200}, ExchangeNS: []int64{50, 50},
		}
	}
	recs := []telemetry.WindowRecord{
		win(0, 0, 1000, 2000),
		win(1, 1000, 2000, 0),
		win(2, 9000, 10000, 1500), // after 7000 ns of idle simulated time
		win(3, 10000, 11000, 800),
	}
	setup := []int64{5000, 5000}
	computeAt := map[int64]float64{} // window StartNS → compute slice start, µs
	for _, ev := range telemetry.BuildTraceEvents(recs, setup) {
		if ev.Name != "compute" {
			continue
		}
		start := ev.Args["start_ns"].(int64)
		if at, ok := computeAt[start]; ok && at != ev.TS {
			t.Fatalf("window at sim %d: engine tracks start its compute at %v and %v µs", start, at, ev.TS)
		}
		computeAt[start] = ev.TS
	}
	tl := telemetry.NewTimeline(recs, setup)
	for _, rec := range recs {
		span := HopSpan{Trace: 1, Kind: SpanHop, Start: des.Time(rec.StartNS), End: des.Time(rec.EndNS)}
		got := -1.0
		for _, ev := range PathTraceEvents([]HopSpan{span}, tl) {
			if ev.Ph == "X" {
				got = ev.TS
			}
		}
		if want := computeAt[rec.StartNS]; got != want {
			t.Errorf("hop at sim %d drawn at %v µs, its window's compute slices at %v µs", rec.StartNS, got, want)
		}
	}
}

func TestPathTraceEvents(t *testing.T) {
	spans := []HopSpan{
		{Trace: 5, Src: 0, Dst: 2, Node: 0, Link: 0, Kind: SpanHop, Start: 0, End: 1000, Engine: 0},
		{Trace: 5, Src: 0, Dst: 2, Node: 1, Link: 1, Kind: SpanHop, Start: 1000, End: 2000, Engine: 1},
		{Trace: 5, Src: 0, Dst: 2, Node: 2, Link: -1, Kind: SpanDeliver, Start: 2000, End: 2000, Engine: 1},
		{Trace: 8, Src: 2, Dst: 0, Node: 2, Link: 1, Kind: SpanHop, Start: 500, End: 1500, Engine: 1, Ack: true},
	}
	// Two windows covering sim [0,1000) and [1000,2000), with different
	// wall widths: sim time 1000 must land at synthetic 4000 ns.
	recs := []telemetry.WindowRecord{
		{Seq: 0, StartNS: 0, EndNS: 1000, WallNS: 4000},
		{Seq: 1, StartNS: 1000, EndNS: 2000, WallNS: 1000},
	}
	events := PathTraceEvents(spans, telemetry.NewTimeline(recs, nil))
	if len(events) == 0 {
		t.Fatal("no events")
	}
	lanes := map[int][]telemetry.TraceEvent{}
	var procName string
	for _, ev := range events {
		if ev.PID != pathPID {
			t.Fatalf("event on pid %d: %+v", ev.PID, ev)
		}
		if ev.Ph == "M" && ev.Name == "process_name" {
			procName = ev.Args["name"].(string)
		}
		if ev.Ph == "X" {
			lanes[ev.TID] = append(lanes[ev.TID], ev)
		}
	}
	if procName != "network paths" {
		t.Errorf("process name %q", procName)
	}
	if len(lanes) != 2 {
		t.Fatalf("want 2 lanes, got %d", len(lanes))
	}
	for tid, evs := range lanes {
		end := -1.0
		for _, ev := range evs {
			if ev.TS < end {
				t.Errorf("lane %d slice starts before previous end: %+v", tid, ev)
			}
			if ev.Dur <= 0 {
				t.Errorf("non-positive duration: %+v", ev)
			}
			end = ev.TS + ev.Dur
		}
	}
	// The first lane's second hop starts at sim 1000 → synthetic 4000 ns =
	// 4 µs on the trace timeline.
	first := lanes[0]
	if len(first) != 3 {
		t.Fatalf("lane 0 slices: %+v", first)
	}
	if first[1].TS != 4.0 {
		t.Errorf("window interpolation: hop 2 at %v µs, want 4", first[1].TS)
	}

	// Identity mapping without records.
	flat := PathTraceEvents(spans[:1], telemetry.Timeline{})
	for _, ev := range flat {
		if ev.Ph == "X" && ev.TS != 0 {
			t.Errorf("identity mapping start: %+v", ev)
		}
	}
	if PathTraceEvents(nil, telemetry.NewTimeline(recs, nil)) != nil {
		t.Error("no spans must yield no events")
	}
}
