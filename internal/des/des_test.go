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
	k.ScheduleFunc(30, func(Time) { fired = append(fired, 3) })
	k.ScheduleFunc(10, func(Time) { fired = append(fired, 1) })
	k.ScheduleFunc(20, func(Time) { fired = append(fired, 2) })
	n := k.Run(EndOfTime)
	if n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
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
		k.ScheduleFunc(100, func(Time) { fired = append(fired, i) })
	}
	k.Run(EndOfTime)
	for i, v := range fired {
		if v != i {
			t.Fatalf("same-timestamp events fired out of schedule order: %v", fired)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var k Kernel
	k.ScheduleFunc(10, func(Time) {})
	k.Run(EndOfTime)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	k.ScheduleFunc(5, func(Time) {})
}

func TestAfter(t *testing.T) {
	var k Kernel
	var at Time
	k.ScheduleFunc(100, func(now Time) {
		k.AfterFunc(50, func(now Time) { at = now })
	})
	k.Run(EndOfTime)
	if at != 150 {
		t.Errorf("After fired at %v, want 150", at)
	}
}

func TestCancel(t *testing.T) {
	var k Kernel
	fired := false
	e := k.ScheduleFunc(10, func(Time) { fired = true })
	if !e.Scheduled() {
		t.Fatal("event not marked scheduled")
	}
	k.Cancel(&e)
	if e.Scheduled() {
		t.Fatal("event still marked scheduled after cancel")
	}
	k.Run(EndOfTime)
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
		events = append(events, k.ScheduleFunc(Time(i*10), func(Time) { fired = append(fired, i) }))
	}
	for i := 0; i < 20; i += 2 {
		k.Cancel(&events[i])
	}
	k.Run(EndOfTime)
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
		k.ScheduleFunc(at, func(now Time) { fired = append(fired, now) })
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

// Run and RunUntil must agree on the clock: a finite horizon is reached
// even when the queue drains early, while Run(EndOfTime) leaves the clock
// at the last event executed (there is no finite time to advance to).
func TestRunAdvancesClockToHorizon(t *testing.T) {
	var k Kernel
	k.ScheduleFunc(10, func(Time) {})
	if n := k.Run(50); n != 1 {
		t.Fatalf("Run(50) executed %d events, want 1", n)
	}
	if k.Now() != 50 {
		t.Errorf("clock after Run(50) = %v, want 50 (align with RunUntil)", k.Now())
	}
	if k.Run(80); k.Now() != 80 {
		t.Errorf("Run on empty queue left clock at %v, want 80", k.Now())
	}
	var k2 Kernel
	k2.ScheduleFunc(10, func(Time) {})
	k2.Run(EndOfTime)
	if k2.Now() != 10 {
		t.Errorf("clock after Run(EndOfTime) = %v, want 10 (last event)", k2.Now())
	}
}

// A handle kept past its event's firing must stay inert even after the
// arena node it points at has been recycled for a newer event.
func TestStaleCancelAfterNodeReuse(t *testing.T) {
	var k Kernel
	e1 := k.ScheduleFunc(10, func(Time) {})
	k.Run(EndOfTime)
	if e1.Scheduled() {
		t.Fatal("fired event still reports Scheduled")
	}
	fired := false
	e2 := k.ScheduleFunc(20, func(Time) { fired = true })
	k.Cancel(&e1) // stale handle; its node now backs e2
	if !e2.Scheduled() {
		t.Fatal("stale Cancel killed an unrelated live event")
	}
	k.Run(EndOfTime)
	if !fired {
		t.Fatal("live event did not fire after stale Cancel")
	}
	var zero Event
	if zero.Scheduled() {
		t.Fatal("zero Event reports Scheduled")
	}
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
	e := k.ScheduleEvent(30, &c)
	if !e.Scheduled() {
		t.Fatal("ScheduleEvent handle not scheduled")
	}
	k.ScheduleEvent(40, &c)
	k.Run(EndOfTime)
	if c.n != 2 || c.at != 40 {
		t.Fatalf("EventHandler fired %d times (last at %v), want 2 at 40", c.n, c.at)
	}
	if e.Scheduled() {
		t.Fatal("fired EventHandler handle still Scheduled")
	}
	// Cancelled EventHandler events never fire.
	e2 := k.ScheduleEvent(50, &c)
	k.Cancel(&e2)
	k.Run(EndOfTime)
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
		k.ScheduleFunc(Time(i), func(Time) {})
	}
	k.Run(EndOfTime)
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
			k.AfterFunc(1, recur)
		}
	}
	k.ScheduleFunc(0, recur)
	k.Run(EndOfTime)
	if count != 100 {
		t.Errorf("recursive scheduling executed %d events, want 100", count)
	}
	if k.Now() != 99 {
		t.Errorf("clock = %v, want 99", k.Now())
	}
}

func TestStepRespectsLimit(t *testing.T) {
	var k Kernel
	k.ScheduleFunc(10, func(Time) {})
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
			k.ScheduleFunc(at, func(now Time) { fired = append(fired, now) })
		}
		k.Run(EndOfTime)
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
				e := k.ScheduleFunc(Time(rng.Intn(1000)), func(Time) { firedCount++ })
				alive[e] = true
			}
		}
		want := len(alive)
		k.Run(EndOfTime)
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
			k.ScheduleFunc(at, func(Time) {})
		}
		k.Run(EndOfTime)
	}
}

// warmSteadyKernel returns a kernel holding a standing queue of 4096
// events whose arena and heap have already grown: filled and fully drained
// once, then refilled.
func warmSteadyKernel() (k *Kernel, offs []Time, h func(Time)) {
	k = new(Kernel)
	h = func(Time) {}
	rng := rand.New(rand.NewSource(2))
	offs = make([]Time, 4096)
	for i := range offs {
		offs[i] = Time(rng.Intn(1000) + 1)
	}
	for _, off := range offs {
		k.ScheduleFunc(k.Now()+off, h)
	}
	k.Run(EndOfTime)
	for _, off := range offs {
		k.ScheduleFunc(k.Now()+off, h)
	}
	return k, offs, h
}

// BenchmarkKernelSteadyState measures the warm hot path: a standing queue
// of 4096 events, each iteration scheduling one event and firing one. This
// is the per-hop cost the packet pipeline pays.
func BenchmarkKernelSteadyState(b *testing.B) {
	k, offs, h := warmSteadyKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ScheduleFunc(k.Now()+offs[i&(len(offs)-1)], h)
		k.Step(EndOfTime)
	}
}

// TestKernelSteadyStateZeroAllocs pins what the benchmark above reports as
// allocs/op: once the arena is warm, one schedule plus one step allocates
// nothing, whichever form the handler takes — a non-capturing closure or a
// pointer to a pooled struct.
func TestKernelSteadyStateZeroAllocs(t *testing.T) {
	pooled := &countingHandler{}
	forms := []struct {
		name     string
		schedule func(k *Kernel, at Time, h Handler)
	}{
		{"ScheduleFunc", func(k *Kernel, at Time, h Handler) { k.ScheduleFunc(at, h) }},
		{"ScheduleEvent", func(k *Kernel, at Time, _ Handler) { k.ScheduleEvent(at, pooled) }},
	}
	for _, f := range forms {
		k, offs, h := warmSteadyKernel()
		i := 0
		allocs := testing.AllocsPerRun(10000, func() {
			f.schedule(k, k.Now()+offs[i&(len(offs)-1)], h)
			k.Step(EndOfTime)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state schedule+step allocates %v times per op, want 0", f.name, allocs)
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
				k.ScheduleFunc(e.at, func(Time) { fired = append(fired, i) })
			} else {
				k.ScheduleEvent(e.at, &tagHandler{tag: i, fired: &fired})
			}
		}
		k.Run(EndOfTime)
		if !slices.Equal(fired, c.want) {
			t.Errorf("%s: fired %v, want %v", c.name, fired, c.want)
		}
	}
}
