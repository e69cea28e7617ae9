package des

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{1500 * Nanosecond, "1.500µs"},
		{2500 * Microsecond, "2.500ms"},
		{3 * Second, "3.000s"},
		{EndOfTime, "∞"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v, want 2", got)
	}
	if got := (Millisecond + Millisecond/2).Millis(); got != 1.5 {
		t.Errorf("Millis() = %v, want 1.5", got)
	}
}

func TestFromFloat(t *testing.T) {
	cases := []struct {
		v    float64
		unit Time
		want Time
	}{
		{1.5, Second, 1500 * Millisecond},
		{1.001, Second, 1_001_000_000},
		{0.456, Second, 456 * Millisecond},
		{1.001, Microsecond, 1001},
		{15, Microsecond, 15 * Microsecond},
		{0, Second, 0},
	}
	for _, c := range cases {
		if got := FromFloat(c.v, c.unit); got != c.want {
			t.Errorf("FromFloat(%g, %d) = %d, want %d", c.v, c.unit, got, c.want)
		}
	}
}

func TestScheduleAndRunOrder(t *testing.T) {
	var k Kernel
	var fired []int
	k.ScheduleEvent(30, Handler(func(Time) { fired = append(fired, 3) }))
	k.ScheduleEvent(10, Handler(func(Time) { fired = append(fired, 1) }))
	k.ScheduleEvent(20, Handler(func(Time) { fired = append(fired, 2) }))
	n := k.RunUntil(EndOfTime)
	if n != 3 {
		t.Fatalf("RunUntil executed %d events, want 3", n)
	}
	for i, v := range fired {
		if v != i+1 {
			t.Fatalf("events fired out of order: %v", fired)
		}
	}
	if k.Now() != 30 {
		t.Errorf("clock = %v, want 30", k.Now())
	}
}

func TestTieBreakIsScheduleOrder(t *testing.T) {
	var k Kernel
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		k.ScheduleEvent(100, Handler(func(Time) { fired = append(fired, i) }))
	}
	k.RunUntil(EndOfTime)
	for i, v := range fired {
		if v != i {
			t.Fatalf("same-timestamp events fired out of schedule order: %v", fired)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var k Kernel
	k.ScheduleEvent(10, Handler(func(Time) {}))
	k.RunUntil(EndOfTime)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	k.ScheduleEvent(5, Handler(func(Time) {}))
}

func TestAfter(t *testing.T) {
	var k Kernel
	var at Time
	k.ScheduleEvent(100, Handler(func(now Time) {
		k.ScheduleEvent(now+50, Handler(func(now Time) { at = now }))
	}))
	k.RunUntil(EndOfTime)
	if at != 150 {
		t.Errorf("event scheduled 50 after 100 fired at %v, want 150", at)
	}
}

func TestCancel(t *testing.T) {
	var k Kernel
	fired := false
	e := k.ScheduleEvent(10, Handler(func(Time) { fired = true }))
	if k.Pending() != 1 {
		t.Fatal("event not queued")
	}
	k.Cancel(&e)
	if k.Pending() != 0 {
		t.Fatal("event still queued after cancel")
	}
	k.RunUntil(EndOfTime)
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double cancel and nil cancel are no-ops.
	k.Cancel(&e)
	k.Cancel(nil)
}

func TestCancelMiddleOfQueue(t *testing.T) {
	var k Kernel
	var fired []int
	var events []Event
	for i := 0; i < 20; i++ {
		i := i
		events = append(events, k.ScheduleEvent(Time(i*10), Handler(func(Time) { fired = append(fired, i) })))
	}
	for i := 0; i < 20; i += 2 {
		k.Cancel(&events[i])
	}
	k.RunUntil(EndOfTime)
	if len(fired) != 10 {
		t.Fatalf("fired %d events, want 10: %v", len(fired), fired)
	}
	for j, v := range fired {
		if v != 2*j+1 {
			t.Fatalf("wrong survivors fired: %v", fired)
		}
	}
}

func TestRunUntilIsExclusiveAndAdvancesClock(t *testing.T) {
	var k Kernel
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		k.ScheduleEvent(at, Handler(func(now Time) { fired = append(fired, now) }))
	}
	n := k.RunUntil(30)
	if n != 2 {
		t.Fatalf("RunUntil(30) executed %d events, want 2 (strictly before limit)", n)
	}
	if k.Now() != 30 {
		t.Errorf("clock after RunUntil = %v, want 30", k.Now())
	}
	if k.NextEventTime() != 30 {
		t.Errorf("next event = %v, want 30", k.NextEventTime())
	}
	n = k.RunUntil(EndOfTime)
	if n != 2 {
		t.Fatalf("second RunUntil executed %d, want 2", n)
	}
}

// RunUntil reaches a finite horizon even when the queue drains early,
// while RunUntil(EndOfTime) leaves the clock at the last event executed
// (there is no finite time to advance to).
func TestRunAdvancesClockToHorizon(t *testing.T) {
	var k Kernel
	k.ScheduleEvent(10, Handler(func(Time) {}))
	if n := k.RunUntil(50); n != 1 {
		t.Fatalf("RunUntil(50) executed %d events, want 1", n)
	}
	if k.Now() != 50 {
		t.Errorf("clock after RunUntil(50) = %v, want 50", k.Now())
	}
	if k.RunUntil(80); k.Now() != 80 {
		t.Errorf("RunUntil on empty queue left clock at %v, want 80", k.Now())
	}
	var k2 Kernel
	k2.ScheduleEvent(10, Handler(func(Time) {}))
	k2.RunUntil(EndOfTime)
	if k2.Now() != 10 {
		t.Errorf("clock after RunUntil(EndOfTime) = %v, want 10 (last event)", k2.Now())
	}
}

// A handle kept past its event's firing must stay inert even after the
// arena node it points at has been recycled for a newer event.
func TestStaleCancelAfterNodeReuse(t *testing.T) {
	var k Kernel
	e1 := k.ScheduleEvent(10, Handler(func(Time) {}))
	k.RunUntil(EndOfTime)
	fired := false
	k.ScheduleEvent(20, Handler(func(Time) { fired = true }))
	k.Cancel(&e1) // stale handle; its node now backs the new event
	if k.Pending() != 1 {
		t.Fatal("stale Cancel killed an unrelated live event")
	}
	k.RunUntil(EndOfTime)
	if !fired {
		t.Fatal("live event did not fire after stale Cancel")
	}
	var zero Event
	k.Cancel(&zero)
	k.Cancel(nil)
}

type countingHandler struct {
	n  int
	at Time
}

func (c *countingHandler) OnEvent(now Time) { c.n++; c.at = now }

func TestScheduleEventHandler(t *testing.T) {
	var k Kernel
	var c countingHandler
	k.ScheduleEvent(30, &c)
	k.ScheduleEvent(40, &c)
	if k.Pending() != 2 {
		t.Fatalf("%d events queued, want 2", k.Pending())
	}
	k.RunUntil(EndOfTime)
	if c.n != 2 || c.at != 40 {
		t.Fatalf("EventHandler fired %d times (last at %v), want 2 at 40", c.n, c.at)
	}
	// Cancelled EventHandler events never fire.
	e2 := k.ScheduleEvent(50, &c)
	k.Cancel(&e2)
	k.RunUntil(EndOfTime)
	if c.n != 2 {
		t.Fatalf("cancelled EventHandler fired (n=%d)", c.n)
	}
}

func TestNextEventTimeEmpty(t *testing.T) {
	var k Kernel
	if k.NextEventTime() != EndOfTime {
		t.Errorf("empty queue NextEventTime = %v, want EndOfTime", k.NextEventTime())
	}
}

func TestProcessedCounter(t *testing.T) {
	var k Kernel
	for i := 0; i < 7; i++ {
		k.ScheduleEvent(Time(i), Handler(func(Time) {}))
	}
	k.RunUntil(EndOfTime)
	if k.Processed() != 7 {
		t.Errorf("Processed = %d, want 7", k.Processed())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	var k Kernel
	count := 0
	var recur Handler
	recur = func(now Time) {
		count++
		if count < 100 {
			k.ScheduleEvent(now+1, recur)
		}
	}
	k.ScheduleEvent(0, recur)
	k.RunUntil(EndOfTime)
	if count != 100 {
		t.Errorf("recursive scheduling executed %d events, want 100", count)
	}
	if k.Now() != 99 {
		t.Errorf("clock = %v, want 99", k.Now())
	}
}

func TestStepRespectsLimit(t *testing.T) {
	var k Kernel
	k.ScheduleEvent(10, Handler(func(Time) {}))
	if k.Step(10) {
		t.Fatal("Step executed event at the limit; limit must be exclusive")
	}
	if !k.Step(11) {
		t.Fatal("Step refused event strictly before limit")
	}
}

// Property: for any set of timestamps, the kernel fires events in
// non-decreasing time order and fires all of them.
func TestQuickFiringOrder(t *testing.T) {
	f := func(stamps []uint16) bool {
		var k Kernel
		var fired []Time
		for _, s := range stamps {
			at := Time(s)
			k.ScheduleEvent(at, Handler(func(now Time) { fired = append(fired, now) }))
		}
		k.RunUntil(EndOfTime)
		if len(fired) != len(stamps) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: interleaving schedules and cancels never corrupts the heap; the
// surviving events fire exactly once, in order.
func TestQuickCancelConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var k Kernel
		alive := map[Event]bool{}
		firedCount := 0
		for i := 0; i < 200; i++ {
			if rng.Intn(3) == 0 && len(alive) > 0 {
				for e := range alive {
					k.Cancel(&e)
					delete(alive, e)
					break
				}
			} else {
				e := k.ScheduleEvent(Time(rng.Intn(1000)), Handler(func(Time) { firedCount++ }))
				alive[e] = true
			}
		}
		want := len(alive)
		k.RunUntil(EndOfTime)
		return firedCount == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkKernelScheduleRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	stamps := make([]Time, 10000)
	for i := range stamps {
		stamps[i] = Time(rng.Intn(1 << 20))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var k Kernel
		for _, at := range stamps {
			k.ScheduleEvent(at, Handler(func(Time) {}))
		}
		k.RunUntil(EndOfTime)
	}
}

// warmSteadyKernel returns a kernel holding a standing queue of len(offs)
// events (a power of two) whose arena and queue have already grown: filled
// and fully drained once, refilled, then run through the offsets sixteen
// times so every ring bucket and the far heap have reached their standing
// size.
func warmSteadyKernel(offs []Time) (*Kernel, Handler) {
	k := new(Kernel)
	h := Handler(func(Time) {})
	for _, off := range offs {
		k.ScheduleEvent(k.Now()+off, h)
	}
	k.RunUntil(EndOfTime)
	for _, off := range offs {
		k.ScheduleEvent(k.Now()+off, h)
	}
	for i := 0; i < 16*len(offs); i++ {
		k.ScheduleEvent(k.Now()+offs[i&(len(offs)-1)], h)
		k.Step(EndOfTime)
	}
	return k, h
}

// nearOffsets are 4096 schedule-ahead offsets of 1–1000 ns: every event
// stays in the current slot, so only the current-slot heap works.
func nearOffsets() []Time {
	rng := rand.New(rand.NewSource(2))
	offs := make([]Time, 4096)
	for i := range offs {
		offs[i] = Time(rng.Intn(1000) + 1)
	}
	return offs
}

// spreadShare[e-14] is the relative share of a packet run's events that are
// scheduled [2^e, 2^(e+1)) ns ahead, e = 14…27: the shape of a seq-packet
// run's log2 histogram, peaking near 8 ms.
var spreadShare = [...]int{2, 3, 4, 5, 6, 7, 8, 9, 10, 10, 8, 5, 3, 1}

// spreadOffsets are 4096 schedule-ahead offsets drawn from spreadShare,
// plus 1 in 256 beyond 2^28 ns, so events pass through every tier.
func spreadOffsets() []Time {
	rng := rand.New(rand.NewSource(3))
	total := 0
	for _, s := range spreadShare {
		total += s
	}
	offs := make([]Time, 4096)
	for i := range offs {
		e := 28
		if rng.Intn(256) > 0 {
			r := rng.Intn(total)
			for e = 14; r >= spreadShare[e-14]; e++ {
				r -= spreadShare[e-14]
			}
		}
		offs[i] = 1<<e + Time(rng.Int63n(1<<e))
	}
	return offs
}

func benchSteady(b *testing.B, offs []Time) {
	k, h := warmSteadyKernel(offs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ScheduleEvent(k.Now()+offs[i&(len(offs)-1)], h)
		k.Step(EndOfTime)
	}
}

// BenchmarkKernelSteadyState measures the warm hot path at a standing queue
// of 4096 events, each iteration scheduling one event and firing one. Its
// 1–1000 ns offsets keep every event in the current-slot heap, so it prices
// that heap alone.
func BenchmarkKernelSteadyState(b *testing.B) { benchSteady(b, nearOffsets()) }

// BenchmarkKernelSpread is the same loop with offsets shaped like a packet
// run's (spreadOffsets): events pass through the ring and the far heap
// before the current-slot heap fires them. This is the per-hop cost the
// packet pipeline pays.
func BenchmarkKernelSpread(b *testing.B) { benchSteady(b, spreadOffsets()) }

// TestKernelSteadyStateZeroAllocs pins what the benchmarks above report as
// allocs/op: once the arena and queue are warm, one schedule plus one step
// allocates nothing, whichever form the handler takes — a non-capturing
// closure or a pointer to a pooled struct — and whichever tiers the
// offsets reach.
func TestKernelSteadyStateZeroAllocs(t *testing.T) {
	pooled := &countingHandler{}
	forms := []struct {
		name     string
		schedule func(k *Kernel, at Time, h Handler)
	}{
		{"closure", func(k *Kernel, at Time, h Handler) { k.ScheduleEvent(at, h) }},
		{"ScheduleEvent", func(k *Kernel, at Time, _ Handler) { k.ScheduleEvent(at, pooled) }},
	}
	spans := []struct {
		name     string
		offs     []Time
		allTiers bool // the standing queue reaches the ring and the far heap
	}{
		{"current slot", nearOffsets(), false},
		{"all tiers", spreadOffsets(), true},
	}
	for _, sp := range spans {
		for _, f := range forms {
			k, h := warmSteadyKernel(sp.offs)
			i := 0
			allocs := testing.AllocsPerRun(10000, func() {
				f.schedule(k, k.Now()+sp.offs[i&(len(sp.offs)-1)], h)
				k.Step(EndOfTime)
				i++
			})
			if allocs != 0 {
				t.Errorf("%s, %s: steady-state schedule+step allocates %v times per op, want 0", sp.name, f.name, allocs)
			}
			if sp.allTiers && (k.ring.n == 0 || len(k.far) == 0) {
				t.Errorf("%s, %s: ring holds %d and far heap %d events; the offsets miss a tier", sp.name, f.name, k.ring.n, len(k.far))
			}
		}
	}
}

// A node carries one handler field; growing it back to a union shows here.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 40 {
		t.Fatalf("sizeof(node) = %d, want 40", got)
	}
}

type tagHandler struct {
	tag   int
	fired *[]int
}

func (h *tagHandler) OnEvent(Time) { *h.fired = append(*h.fired, h.tag) }

// Closures and EventHandler structs share one queue and one (at, seq) key:
// whatever the mix, events fire by time and, within a time, in the order
// they were scheduled.
func TestFormsInterleaveInAtSeqOrder(t *testing.T) {
	type ev struct {
		at     Time
		closed bool // schedule as a closure; otherwise as a struct
	}
	cases := []struct {
		name string
		evs  []ev
		want []int // indices into evs, in firing order
	}{
		{"same time alternating", []ev{{10, true}, {10, false}, {10, true}, {10, false}}, []int{0, 1, 2, 3}},
		{"struct first", []ev{{10, false}, {10, true}}, []int{0, 1}},
		{"time beats seq", []ev{{30, true}, {20, false}, {10, true}, {20, true}, {10, false}}, []int{2, 4, 1, 3, 0}},
	}
	for _, c := range cases {
		var k Kernel
		var fired []int
		for i, e := range c.evs {
			if e.closed {
				k.ScheduleEvent(e.at, Handler(func(Time) { fired = append(fired, i) }))
			} else {
				k.ScheduleEvent(e.at, &tagHandler{tag: i, fired: &fired})
			}
		}
		k.RunUntil(EndOfTime)
		if !slices.Equal(fired, c.want) {
			t.Errorf("%s: fired %v, want %v", c.name, fired, c.want)
		}
	}
}
