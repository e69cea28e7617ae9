package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Errorf("counter = %d, want 42", c.Load())
	}
	var g Gauge
	g.Set(4)
	if g.Load() != 4 {
		t.Errorf("gauge = %d, want 4", g.Load())
	}
	g.SetMax(2)
	if g.Load() != 4 {
		t.Errorf("SetMax lowered the gauge to %d", g.Load())
	}
	g.SetMax(9)
	if g.Load() != 9 {
		t.Errorf("SetMax did not raise the gauge: %d", g.Load())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Error("same (name,labels) returned distinct counters")
	}
	l0 := r.Counter("x_total", "help", Label{Key: "engine", Value: "0"})
	if l0 == a {
		t.Error("labeled counter aliased the unlabeled one")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "help", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 99, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 5+10+11+99+5000 {
		t.Fatalf("sum = %d", h.Sum())
	}
	pts := r.Gather()
	if len(pts) != 1 {
		t.Fatalf("gathered %d points", len(pts))
	}
	p := pts[0]
	// Cumulative: ≤10 → 2, ≤100 → 4, ≤1000 → 4, +Inf → 5.
	want := []uint64{2, 4, 4}
	for i, b := range p.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket le=%d count=%d, want %d", b.Le, b.Count, want[i])
		}
	}
	if p.Count != 5 {
		t.Errorf("point count = %d", p.Count)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("massf_events_total", "Events.", Label{Key: "engine", Value: "1"}).Add(3)
	r.Gauge("massf_depth", "Depth.").Set(-2)
	r.Histogram("massf_wait_ns", "Wait.", []int64{100}).Observe(50)

	var b strings.Builder
	if err := WritePrometheus(&b, r.Gather(Label{Key: "run", Value: "r001"})); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE massf_events_total counter",
		`massf_events_total{engine="1",run="r001"} 3`,
		"# TYPE massf_depth gauge",
		`massf_depth{run="r001"} -2`,
		"# TYPE massf_wait_ns histogram",
		`massf_wait_ns_bucket{le="100",run="r001"} 1`,
		`massf_wait_ns_bucket{le="+Inf",run="r001"} 1`,
		`massf_wait_ns_sum{run="r001"} 50`,
		`massf_wait_ns_count{run="r001"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusMergedRegistriesSingleHeader(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("massf_x_total", "X.").Add(1)
	b.Counter("massf_x_total", "X.").Add(2)
	points := append(a.Gather(Label{Key: "run", Value: "a"}), b.Gather(Label{Key: "run", Value: "b"})...)
	var sb strings.Builder
	if err := WritePrometheus(&sb, points); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "# TYPE massf_x_total"); n != 1 {
		t.Errorf("TYPE header emitted %d times, want 1:\n%s", n, sb.String())
	}
}

func TestRingEvictionAndSeq(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Append(WindowRecord{Window: i})
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot kept %d records, want 4", len(snap))
	}
	for i, rec := range snap {
		if rec.Window != 6+i || rec.Seq != uint64(6+i) {
			t.Errorf("snap[%d] = window %d seq %d", i, rec.Window, rec.Seq)
		}
	}
	if total(r) != 10 {
		t.Errorf("total = %d", total(r))
	}
}

// total is the number of records ever appended to r.
func total(r *Ring) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// The ring recycles evicted records' slices into later Get calls, so
// everything it hands out on read paths (Snapshot, subscriber channels)
// must be a deep copy that later recycling cannot scribble over.
func TestRingPooledRecyclingIsolatesReaders(t *testing.T) {
	const capacity, engines = 4, 3
	r := NewRing(capacity)
	appendPooled := func(w int) {
		rec := r.Get(engines)
		rec.Window = w
		for e := 0; e < engines; e++ {
			rec.Events[e] = uint64(100*w + e)
		}
		r.Append(rec)
	}
	_, ch, cancel := r.Subscribe(64)
	defer cancel()
	for i := 0; i < capacity; i++ {
		appendPooled(i)
	}
	snap := r.Snapshot()
	// Overwrite the whole ring: every record snap aliases would be
	// recycled and refilled if Snapshot didn't copy.
	for i := capacity; i < 3*capacity; i++ {
		appendPooled(i)
	}
	for i, rec := range snap {
		if len(rec.Events) != engines || rec.Events[0] != uint64(100*i) {
			t.Errorf("snapshot record %d mutated by recycling: %+v", i, rec)
		}
	}
	for i := 0; i < capacity; i++ {
		rec := <-ch
		if rec.Window != i || rec.Events[1] != uint64(100*i+1) {
			t.Errorf("subscribed record %d mutated by recycling: %+v", i, rec)
		}
	}
	// The pool really recycles: a saturated ring stops growing its arena.
	if got := total(r); got != 3*capacity {
		t.Fatalf("total = %d, want %d", got, 3*capacity)
	}
	live := r.Snapshot()
	if len(live) != capacity || live[capacity-1].Window != 3*capacity-1 {
		t.Fatalf("post-recycling snapshot wrong: %+v", live)
	}
}

func TestRingSubscribeReplayThenLive(t *testing.T) {
	r := NewRing(16)
	r.Append(WindowRecord{Window: 0})
	r.Append(WindowRecord{Window: 1})
	past, ch, cancel := r.Subscribe(8)
	defer cancel()
	if len(past) != 2 {
		t.Fatalf("replay = %d records, want 2", len(past))
	}
	r.Append(WindowRecord{Window: 2})
	rec := <-ch
	if rec.Window != 2 || rec.Seq != 2 {
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
	r := NewRing(8)
	_, _, cancel := r.Subscribe(1)
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ { // would deadlock if Append blocked
			r.Append(WindowRecord{Window: i})
		}
		close(done)
	}()
	<-done
}

func TestRingConcurrentAppendSubscribe(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			r.Append(WindowRecord{Window: i})
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

func TestSimTelemetryNew(t *testing.T) {
	tel := New(4, 32)
	if len(tel.EngineEvents) != 4 {
		t.Fatalf("engine counters = %d", len(tel.EngineEvents))
	}
	tel.Events.Add(10)
	tel.EngineEvents[2].Add(3)
	var b strings.Builder
	if err := WritePrometheus(&b, tel.Reg.Gather()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"massf_sim_events_total 10",
		`massf_engine_events_total{engine="2"} 3`,
		"# TYPE massf_sim_barrier_wait_ns histogram",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in exposition", want)
		}
	}
}
