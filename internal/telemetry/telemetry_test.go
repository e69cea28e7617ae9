package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	var h histogram
	for _, v := range []int64{500, 1_000, 1_001, 99_999, 5_000_000_000} {
		h.observe(v)
	}
	p := h.point("lat_ns", "help", nil)
	if p.Count != 5 || p.Sum != 500+1_000+1_001+99_999+5_000_000_000 {
		t.Fatalf("count %d sum %g", p.Count, p.Sum)
	}
	if len(p.Buckets) != len(durationBounds) {
		t.Fatalf("%d buckets, want %d", len(p.Buckets), len(durationBounds))
	}
	// Cumulative: ≤1µs → 2, ≤5µs → 3, ≤100µs → 4, and the 5 s value only
	// in +Inf (Count).
	want := map[int64]uint64{1_000: 2, 5_000: 3, 50_000: 3, 100_000: 4, 1_000_000_000: 4}
	for _, b := range p.Buckets {
		if w, ok := want[b.Le]; ok && b.Count != w {
			t.Errorf("bucket le=%d count=%d, want %d", b.Le, b.Count, w)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	var h histogram
	h.observe(50)
	run := map[string]string{"run": "r001"}
	points := []Point{
		{Name: "massf_events_total", Kind: "counter", Help: "Events.",
			Labels: map[string]string{"engine": "1", "run": "r001"}, Value: 3},
		{Name: "massf_depth", Kind: "gauge", Help: "Depth.", Labels: run, Value: -2},
		h.point("massf_wait_ns", "Wait.", run),
	}
	var b strings.Builder
	if err := WritePrometheus(&b, points); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE massf_events_total counter",
		`massf_events_total{engine="1",run="r001"} 3`,
		"# TYPE massf_depth gauge",
		`massf_depth{run="r001"} -2`,
		"# TYPE massf_wait_ns histogram",
		`massf_wait_ns_bucket{le="1000",run="r001"} 1`,
		`massf_wait_ns_bucket{le="+Inf",run="r001"} 1`,
		`massf_wait_ns_sum{run="r001"} 50`,
		`massf_wait_ns_count{run="r001"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestPrometheusMergedRegistriesSingleHeader merges two runs' points, each
// run contributing two families: every family must come out as one
// contiguous group under a single HELP/TYPE header, the groups in the order
// their names first appear.
func TestPrometheusMergedRegistriesSingleHeader(t *testing.T) {
	var points []Point
	for _, run := range []string{"a", "b"} {
		labels := map[string]string{"run": run}
		points = append(points,
			Point{Name: "massf_x_total", Kind: "counter", Help: "X.", Labels: labels, Value: 1},
			Point{Name: "massf_y", Kind: "gauge", Help: "Y.", Labels: labels, Value: 2})
	}
	var sb strings.Builder
	if err := WritePrometheus(&sb, points); err != nil {
		t.Fatal(err)
	}
	want := `# HELP massf_x_total X.
# TYPE massf_x_total counter
massf_x_total{run="a"} 1
massf_x_total{run="b"} 1
# HELP massf_y Y.
# TYPE massf_y gauge
massf_y{run="a"} 2
massf_y{run="b"} 2
`
	if sb.String() != want {
		t.Errorf("merged exposition:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestRingEvictionAndSeq(t *testing.T) {
	tel := New(0, 4)
	var w WindowRecord
	for i := 0; i < 10; i++ {
		w.StartNS = int64(i)
		tel.Publish(&w)
	}
	snap := tel.Windows.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot kept %d records, want 4", len(snap))
	}
	for i, rec := range snap {
		if rec.StartNS != int64(6+i) || rec.Seq != uint64(6+i) {
			t.Errorf("snap[%d] = window at %d seq %d", i, rec.StartNS, rec.Seq)
		}
	}
	if total(tel.Windows) != 10 {
		t.Errorf("total = %d", total(tel.Windows))
	}
}

// total is the number of values ever appended to r.
func total[T any](r *Ring[T]) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// The leader publishes every window from one scratch record it keeps
// rewriting, so what the ring hands out (Snapshot, subscriber channels)
// must not change when later windows are published.
func TestRingIsolatesReaders(t *testing.T) {
	const capacity, engines = 4, 3
	tel := New(engines, capacity)
	w := WindowRecord{
		Events: make([]uint64, engines), RemoteSends: make([]uint64, engines),
		QueueDepth: make([]int, engines),
	}
	publish := func(i int) {
		w.StartNS = int64(i)
		for e := 0; e < engines; e++ {
			w.Events[e] = uint64(100*i + e)
		}
		tel.Publish(&w)
	}
	_, ch, cancel := tel.Windows.Subscribe(64)
	defer cancel()
	for i := 0; i < capacity; i++ {
		publish(i)
	}
	snap := tel.Windows.Snapshot()
	// Overwrite the whole ring and the scratch the records were copied from.
	for i := capacity; i < 3*capacity; i++ {
		publish(i)
	}
	for i, rec := range snap {
		if len(rec.Events) != engines || rec.Events[0] != uint64(100*i) {
			t.Errorf("snapshot record %d changed by later publishes: %+v", i, rec)
		}
	}
	for i := 0; i < capacity; i++ {
		rec := <-ch
		if rec.StartNS != int64(i) || rec.Events[1] != uint64(100*i+1) {
			t.Errorf("subscribed record %d changed by later publishes: %+v", i, rec)
		}
	}
	if got := total(tel.Windows); got != 3*capacity {
		t.Fatalf("total = %d, want %d", got, 3*capacity)
	}
	live := tel.Windows.Snapshot()
	if len(live) != capacity || live[capacity-1].StartNS != 3*capacity-1 {
		t.Fatalf("snapshot after eviction wrong: %+v", live)
	}
}

func TestRingSubscribeReplayThenLive(t *testing.T) {
	tel := New(0, 16)
	r := tel.Windows
	var w WindowRecord
	for i := 0; i < 2; i++ {
		w.StartNS = int64(i)
		tel.Publish(&w)
	}
	past, ch, cancel := r.Subscribe(8)
	defer cancel()
	if len(past) != 2 {
		t.Fatalf("replay = %d records, want 2", len(past))
	}
	w.StartNS = 2
	tel.Publish(&w)
	rec := <-ch
	if rec.StartNS != 2 || rec.Seq != 2 {
		t.Errorf("live record = %+v", rec)
	}
	r.Close()
	if _, ok := <-ch; ok {
		t.Error("channel not closed by ring Close")
	}
	// Subscribe after close: replay still works, channel arrives closed.
	past, ch, cancel2 := r.Subscribe(1)
	defer cancel2()
	if len(past) != 3 {
		t.Errorf("post-close replay = %d records", len(past))
	}
	if _, ok := <-ch; ok {
		t.Error("post-close subscription channel open")
	}
}

func TestRingSlowSubscriberDoesNotBlock(t *testing.T) {
	r := NewRing[WindowRecord](8)
	_, _, cancel := r.Subscribe(1)
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ { // would deadlock if Append blocked
			r.Append(WindowRecord{StartNS: int64(i)})
		}
		close(done)
	}()
	<-done
}

func TestRingConcurrentAppendSubscribe(t *testing.T) {
	r := NewRing[WindowRecord](64)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			r.Append(WindowRecord{StartNS: int64(i)})
		}
		r.Close()
	}()
	var got int
	go func() {
		defer wg.Done()
		_, ch, cancel := r.Subscribe(512)
		defer cancel()
		for range ch {
			got++
		}
	}()
	wg.Wait()
	if total(r) != 500 {
		t.Errorf("total = %d", total(r))
	}
	_ = got // count depends on interleaving; the test is the race detector's
}

// TestSimTelemetryNew publishes two windows and checks the folded totals:
// progress, per-engine events, the queue gauges, the histograms, and the
// network totals Net reports, which Publish stores and Gather only reads.
func TestSimTelemetryNew(t *testing.T) {
	tel := New(2, 32)
	netCalls := 0
	tel.Net = func() NetTotals {
		netCalls++
		return NetTotals{LinkBits: uint64(1000 * netCalls), FaultEvents: 1, FaultConvergeNS: 7}
	}
	w := WindowRecord{
		Events: make([]uint64, 2), RemoteSends: make([]uint64, 2),
		BarrierWaitNS: make([]int64, 2), QueueDepth: make([]int, 2),
	}
	for i := 0; i < 2; i++ {
		w.StartNS, w.EndNS, w.WallNS = int64(i)*1000, int64(i+1)*1000, 3_000
		w.Events[0], w.Events[1] = 3, 4
		w.RemoteSends[1] = 2
		w.QueueDepth[0], w.QueueDepth[1] = 5+i, 1
		w.BarrierWaitNS[0], w.BarrierWaitNS[1] = int64(i)*2_000_000_000, 0
		tel.Publish(&w)
	}
	tel.SetSetup(42)
	if p := tel.Progress(); p != (Progress{Windows: 2, Events: 14, Remote: 4, SimTimeNS: 2000}) {
		t.Errorf("progress %+v", p)
	}
	if recs := tel.Windows.Snapshot(); len(recs) != 2 || recs[1].Remote != 2 || recs[1].QueueDepth[0] != 6 {
		t.Errorf("ring records %+v", recs)
	}
	var b strings.Builder
	if err := WritePrometheus(&b, tel.Gather("r1")); err != nil {
		t.Fatal(err)
	}
	if netCalls != 2 {
		t.Errorf("Net called %d times, want once per Publish", netCalls)
	}
	for _, want := range []string{
		`massf_sim_events_total{run="r1"} 14`,
		`massf_sim_remote_events_total{run="r1"} 4`,
		`massf_sim_windows_total{run="r1"} 2`,
		`massf_sim_time_ns{run="r1"} 2000`,
		`massf_sim_setup_ns{run="r1"} 42`,
		`massf_sim_queue_depth{run="r1"} 7`,
		`massf_sim_queue_depth_peak{run="r1"} 6`,
		`massf_sim_barrier_wait_ns_bucket{le="1000",run="r1"} 3`,
		`massf_sim_barrier_wait_ns_count{run="r1"} 4`,
		`massf_sim_window_wall_ns_bucket{le="5000",run="r1"} 2`,
		`massf_net_link_bits_total{run="r1"} 2000`,
		`massf_net_fault_events_total{run="r1"} 1`,
		`massf_net_fault_converge_ns{run="r1"} 7`,
		`massf_engine_events_total{engine="0",run="r1"} 6`,
		`massf_engine_events_total{engine="1",run="r1"} 8`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in exposition:\n%s", want, b.String())
		}
	}
}
