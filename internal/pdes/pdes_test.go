package pdes

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"massf/internal/cluster"
	"massf/internal/des"
	"massf/internal/telemetry"
)

func newSim(t *testing.T, engines int, window, end des.Time) *Sim {
	t.Helper()
	s, err := New(Config{Engines: engines, Window: window, End: end, Sync: cluster.Fixed{CostNS: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// engineRand is engine i's deterministic stream for the random-work
// tests; only engine i's handlers draw from it.
func engineRand(i int) *rand.Rand { return rand.New(rand.NewSource(int64(i) * 7919)) }

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Engines: 0, Window: 1, End: 1}); err == nil {
		t.Error("0 engines accepted")
	}
	if _, err := New(Config{Engines: 1, Window: 0, End: 1}); err == nil {
		t.Error("0 window accepted")
	}
	if _, err := New(Config{Engines: 1, Window: 1, End: 0}); err == nil {
		t.Error("0 end accepted")
	}
}

func TestSingleEngineRunsAllEvents(t *testing.T) {
	s := newSim(t, 1, des.Millisecond, 10*des.Millisecond)
	count := 0
	for i := 0; i < 25; i++ {
		at := des.Time(i) * 400 * des.Microsecond
		s.Engine(0).Schedule(at, func(des.Time) { count++ })
	}
	stats := s.Run()
	if count != 25 {
		t.Errorf("executed %d events, want 25", count)
	}
	if stats.TotalEvents != 25 {
		t.Errorf("TotalEvents = %d, want 25", stats.TotalEvents)
	}
	if stats.Windows != 10 {
		t.Errorf("Windows = %d, want 10", stats.Windows)
	}
}

func TestEventAtHorizonNotExecuted(t *testing.T) {
	s := newSim(t, 1, des.Millisecond, 5*des.Millisecond)
	ran := false
	s.Engine(0).Schedule(5*des.Millisecond, func(des.Time) { ran = true })
	s.Run()
	if ran {
		t.Error("event at the horizon executed; horizon is exclusive")
	}
}

// An exchange record carries one handler field; growing it back to a union
// shows here (the exchange copies and sorts these every window).
func TestRemoteEventSize(t *testing.T) {
	if got := unsafe.Sizeof(remoteEvent{}); got != 40 {
		t.Fatalf("sizeof(remoteEvent) = %d, want 40", got)
	}
}

func TestRemoteEventDelivery(t *testing.T) {
	s := newSim(t, 4, des.Millisecond, 20*des.Millisecond)
	var deliveredAt des.Time
	// Engine 0 at t=0.2ms sends an event to engine 3 at t=1.5ms (≥ window
	// end 1ms: legal).
	s.Engine(0).Schedule(200*des.Microsecond, func(now des.Time) {
		s.Engine(0).ScheduleRemoteEvent(3, 1500*des.Microsecond, des.Handler(func(at des.Time) {
			deliveredAt = at
		}))
	})
	stats := s.Run()
	if deliveredAt != 1500*des.Microsecond {
		t.Errorf("remote event ran at %v, want 1.5ms", deliveredAt)
	}
	if stats.RemoteEvents != 1 {
		t.Errorf("RemoteEvents = %d, want 1", stats.RemoteEvents)
	}
}

func TestRemoteToSelfIsLocal(t *testing.T) {
	s := newSim(t, 2, des.Millisecond, 5*des.Millisecond)
	ran := false
	s.Engine(1).Schedule(100*des.Microsecond, func(now des.Time) {
		// Same-engine "remote" below the window end is fine.
		s.Engine(1).ScheduleRemoteEvent(1, 200*des.Microsecond, des.Handler(func(des.Time) { ran = true }))
	})
	stats := s.Run()
	if !ran {
		t.Error("self-remote event not delivered")
	}
	if stats.RemoteEvents != 0 {
		t.Errorf("self delivery counted as remote: %d", stats.RemoteEvents)
	}
}

func TestRemoteCausalityViolationPanics(t *testing.T) {
	s := newSim(t, 2, des.Millisecond, 5*des.Millisecond)
	panicked := make(chan bool, 1)
	s.Engine(0).Schedule(500*des.Microsecond, func(now des.Time) {
		defer func() { panicked <- recover() != nil }()
		// 0.8ms < window end 1ms: violates the conservative guarantee.
		s.Engine(0).ScheduleRemoteEvent(1, 800*des.Microsecond, des.Handler(func(des.Time) {}))
	})
	s.Run()
	if !<-panicked {
		t.Error("causality violation did not panic")
	}
}

func TestPingPongAcrossEngines(t *testing.T) {
	// Two engines bounce an event back and forth, one hop per window.
	s := newSim(t, 2, des.Millisecond, 50*des.Millisecond)
	var hops int32
	var bounce func(me int)
	bounce = func(me int) {
		e := s.Engine(me)
		e.Schedule(e.Now(), func(now des.Time) {})
		atomic.AddInt32(&hops, 1)
		other := 1 - me
		at := s.Engine(me).Now() + des.Millisecond
		if at < 49*des.Millisecond {
			s.Engine(me).ScheduleRemoteEvent(other, at, des.Handler(func(des.Time) { bounce(other) }))
		}
	}
	s.Engine(0).Schedule(0, func(des.Time) { bounce(0) })
	s.Run()
	if hops < 40 {
		t.Errorf("ping-pong made %d hops, want ≈49", hops)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, []uint64) {
		s := newSim(t, 4, des.Millisecond, 30*des.Millisecond)
		// Each engine generates random local work and random remote sends.
		for i := 0; i < 4; i++ {
			e := s.Engine(i)
			rng := engineRand(i)
			var gen func(now des.Time)
			gen = func(now des.Time) {
				next := now + des.Time(rng.Intn(500)+100)*des.Microsecond
				if next >= 29*des.Millisecond {
					return
				}
				dst := rng.Intn(4)
				at := next + des.Millisecond
				e.ScheduleRemoteEvent(dst, at, des.Handler(func(des.Time) {}))
				e.Schedule(next, gen)
			}
			e.Schedule(0, gen)
		}
		st := s.Run()
		return st.TotalEvents, st.EngineEvents
	}
	t1, e1 := run()
	assertNoLiveEngines(t)
	t2, e2 := run()
	if t1 != t2 {
		t.Fatalf("TotalEvents differ: %d vs %d", t1, t2)
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("engine %d events differ: %d vs %d", i, e1[i], e2[i])
		}
	}
}

func TestModeledTimeAccounting(t *testing.T) {
	cost := 10 * des.Microsecond
	s, err := New(Config{
		Engines: 2, Window: des.Millisecond, End: 2 * des.Millisecond,
		Sync: cluster.Fixed{CostNS: 5000}, EventCost: cost,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Window 1: engine 0 processes 3 events, engine 1 processes 1.
	// Window 2: engine 1 processes 5 events.
	for i := 0; i < 3; i++ {
		s.Engine(0).Schedule(des.Time(i)*des.Microsecond, func(des.Time) {})
	}
	s.Engine(1).Schedule(0, func(des.Time) {})
	for i := 0; i < 5; i++ {
		s.Engine(1).Schedule(des.Millisecond+des.Time(i), func(des.Time) {})
	}
	stats := s.Run()
	wantBusy := int64(3*10000 + 5*10000) // max per window × cost
	if stats.ModeledBusyNS != wantBusy {
		t.Errorf("ModeledBusyNS = %d, want %d", stats.ModeledBusyNS, wantBusy)
	}
	// Sync (5µs) overlaps with computation: both windows are busier than
	// the barrier, so modeled time equals busy time here.
	if stats.ModeledTimeNS != wantBusy {
		t.Errorf("ModeledTimeNS = %d, want %d", stats.ModeledTimeNS, wantBusy)
	}
	if stats.SyncCostNS != 5000 {
		t.Errorf("SyncCostNS = %d, want 5000", stats.SyncCostNS)
	}
}

func TestLoadSeriesShape(t *testing.T) {
	// 100 windows fit the 512-bucket cap: one bucket per window.
	s := newSim(t, 2, des.Millisecond, 100*des.Millisecond)
	// Engine 0 busy only in the first half.
	for i := 0; i < 50; i++ {
		s.Engine(0).Schedule(des.Time(i)*des.Millisecond, func(des.Time) {})
	}
	stats := s.Run()
	if len(stats.LoadSeries) != 100 {
		t.Fatalf("series has %d buckets, want 100", len(stats.LoadSeries))
	}
	firstHalf, secondHalf := uint64(0), uint64(0)
	for b := 0; b < 50; b++ {
		firstHalf += stats.LoadSeries[b][0]
	}
	for b := 50; b < 100; b++ {
		secondHalf += stats.LoadSeries[b][0]
	}
	if firstHalf != 50 || secondHalf != 0 {
		t.Errorf("load series halves = %d/%d, want 50/0", firstHalf, secondHalf)
	}
	if stats.BucketWidth != des.Millisecond {
		t.Errorf("BucketWidth = %v, want 1ms", stats.BucketWidth)
	}

	// 1000 windows aggregate into the 512-bucket cap.
	s = newSim(t, 2, des.Millisecond, 1000*des.Millisecond)
	for i := 0; i < 1000; i++ {
		s.Engine(0).Schedule(des.Time(i)*des.Millisecond, func(des.Time) {})
	}
	stats = s.Run()
	if stats.Windows <= seriesBuckets {
		t.Fatalf("executed %d windows, want > %d", stats.Windows, seriesBuckets)
	}
	if len(stats.LoadSeries) != seriesBuckets {
		t.Fatalf("series has %d buckets, want %d", len(stats.LoadSeries), seriesBuckets)
	}
	total := uint64(0)
	for _, b := range stats.LoadSeries {
		total += b[0]
	}
	if total != 1000 {
		t.Errorf("series holds %d engine-0 events, want 1000", total)
	}
}

// TestSeriesBucketMatchesGrid: Run keys a window's load-series bucket on
// its start time, and on every cell of a horizon that is not a multiple of
// the window that is the bucket the cell index gave, cell·buckets/cells —
// with fewer cells than the bucket cap and with more.
func TestSeriesBucketMatchesGrid(t *testing.T) {
	const width = 7
	for _, end := range []des.Time{100, 1000*width + 3} {
		t.Run(fmt.Sprint(end), func(t *testing.T) {
			s := newSim(t, 2, width, end)
			cells := int((end + width - 1) / width)
			buckets := min(cells, seriesBuckets)
			// One event at the start of every cell, on alternating engines.
			want := make([][]uint64, buckets)
			for b := range want {
				want[b] = make([]uint64, 2)
			}
			for w := 0; w < cells; w++ {
				s.Engine(w%2).Schedule(des.Time(w)*width, func(des.Time) {})
				want[w*buckets/cells][w%2]++
			}
			stats := s.Run()
			if stats.Windows != cells {
				t.Fatalf("executed %d windows, want %d", stats.Windows, cells)
			}
			if len(stats.LoadSeries) != buckets {
				t.Fatalf("series has %d buckets, want %d", len(stats.LoadSeries), buckets)
			}
			// Fig 3 plots bucket b at b·BucketWidth, so the axis must reach
			// the span the windows were counted over, less integer rounding.
			if span, axis := des.Time(cells)*width, stats.BucketWidth*des.Time(buckets); axis > span || span-axis >= des.Time(buckets) {
				t.Errorf("%d buckets of %v cover %v of the %v span", buckets, stats.BucketWidth, axis, span)
			}
			for b := range want {
				for e := range want[b] {
					if got := stats.LoadSeries[b][e]; got != want[b][e] {
						t.Fatalf("bucket %d engine %d holds %d events, grid rule %d", b, e, got, want[b][e])
					}
				}
			}
		})
	}
}

func TestManyEnginesStress(t *testing.T) {
	// 32 engines flooding random remote events; checks barrier + exchange
	// correctness under real concurrency (run with -race in CI).
	s := newSim(t, 32, des.Millisecond, 20*des.Millisecond)
	var delivered int64
	for i := 0; i < 32; i++ {
		e := s.Engine(i)
		rng := engineRand(i)
		var gen func(now des.Time)
		gen = func(now des.Time) {
			for j := 0; j < 3; j++ {
				dst := rng.Intn(32)
				at := now + des.Millisecond + des.Time(rng.Intn(1000))*des.Microsecond
				if at < 20*des.Millisecond {
					e.ScheduleRemoteEvent(dst, at, des.Handler(func(des.Time) { atomic.AddInt64(&delivered, 1) }))
				}
			}
			if next := now + 500*des.Microsecond; next < 20*des.Millisecond {
				e.Schedule(next, gen)
			}
		}
		e.Schedule(0, gen)
	}
	stats := s.Run()
	if delivered == 0 {
		t.Fatal("no remote deliveries")
	}
	if stats.TotalEvents == 0 || stats.Engines != 32 {
		t.Fatalf("bad stats: %+v", stats)
	}
}

func BenchmarkBarrierWindows8Engines(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, _ := New(Config{
			Engines: 8, Window: des.Millisecond, End: 100 * des.Millisecond,
			Sync: cluster.Fixed{CostNS: 1},
		})
		s.Run()
	}
}

// BenchmarkBarrierWindowsExchange8 drives the cross-engine exchange path:
// every engine ships one remote event per window to its neighbor while
// keeping local work flowing, so the gather/sort/schedule cost at the
// barrier dominates.
func BenchmarkBarrierWindowsExchange8(b *testing.B) {
	const (
		engines = 8
		horizon = 50 * des.Millisecond
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, _ := New(Config{
			Engines: engines, Window: des.Millisecond, End: horizon,
			Sync: cluster.Fixed{CostNS: 1},
		})
		for j := 0; j < engines; j++ {
			e := s.Engine(j)
			var gen func(now des.Time)
			gen = func(now des.Time) {
				dst := (e.ID() + 1) % engines
				if at := now + des.Millisecond; at < horizon {
					e.ScheduleRemoteEvent(dst, at, des.Handler(func(des.Time) {}))
				}
				if next := now + 500*des.Microsecond; next < horizon {
					e.Schedule(next, gen)
				}
			}
			e.Schedule(0, gen)
		}
		s.Run()
	}
}

func TestIdleWindowFastForward(t *testing.T) {
	// Two far-apart events: the engine must not execute the ~10k empty
	// windows between them.
	s := newSim(t, 2, des.Millisecond, 10*des.Second)
	ran := 0
	s.Engine(0).Schedule(des.Millisecond/2, func(des.Time) { ran++ })
	s.Engine(1).Schedule(9*des.Second+des.Millisecond/2, func(des.Time) { ran++ })
	stats := s.Run()
	if ran != 2 {
		t.Fatalf("events ran = %d, want 2", ran)
	}
	if stats.Windows > 10 {
		t.Errorf("executed %d windows; idle fast-forward broken (want ≤ 10)", stats.Windows)
	}
	if stats.TotalEvents != 2 {
		t.Errorf("TotalEvents = %d", stats.TotalEvents)
	}
}

func TestFastForwardRespectsRemoteEvents(t *testing.T) {
	// Engine 0 sends a remote event far in the future; the fast-forward
	// must land exactly on (not beyond) its window.
	s := newSim(t, 2, des.Millisecond, 5*des.Second)
	var deliveredAt des.Time
	s.Engine(0).Schedule(100*des.Microsecond, func(des.Time) {
		s.Engine(0).ScheduleRemoteEvent(1, 4*des.Second+300*des.Microsecond, des.Handler(func(at des.Time) {
			deliveredAt = at
		}))
	})
	stats := s.Run()
	if deliveredAt != 4*des.Second+300*des.Microsecond {
		t.Fatalf("remote event at %v", deliveredAt)
	}
	if stats.Windows > 5 {
		t.Errorf("executed %d windows, want ≤ 5", stats.Windows)
	}
}

func TestFastForwardPreservesDeterminism(t *testing.T) {
	// Sparse random traffic across engines must give identical results
	// regardless of scheduling pressure (run twice).
	exec := func() (uint64, int) {
		s := newSim(t, 4, des.Millisecond, 3*des.Second)
		for i := 0; i < 4; i++ {
			e := s.Engine(i)
			rng := engineRand(i)
			var gen func(now des.Time)
			gen = func(now des.Time) {
				gap := des.Time(rng.Intn(200)+1) * des.Millisecond
				next := now + gap
				if next >= 3*des.Second-des.Millisecond {
					return
				}
				dst := rng.Intn(4)
				e.ScheduleRemoteEvent(dst, next+des.Millisecond, des.Handler(func(des.Time) {}))
				e.Schedule(next, gen)
			}
			e.Schedule(0, gen)
		}
		st := s.Run()
		return st.TotalEvents, st.Windows
	}
	e1, w1 := exec()
	e2, w2 := exec()
	if e1 != e2 || w1 != w2 {
		t.Fatalf("nondeterministic with fast-forward: (%d,%d) vs (%d,%d)", e1, w1, e2, w2)
	}
}

// gridNext is the barrier decision as it was taken on window indices,
// kept here as the reference nextWindow must reproduce: after cell w, run
// cell max(w+1, ⌊next/window⌋), which spans [cell·window, (cell+1)·window)
// cut at end; once the cell reaches ⌈end/window⌉ the run is over.
func gridNext(w int, next, width, end des.Time) (win window, over bool) {
	cell := w + 1
	if skip := int(next / width); skip > cell {
		cell = skip
	}
	if cell >= int((end+width-1)/width) {
		return win, true
	}
	return window{des.Time(cell) * width, min(des.Time(cell+1)*width, end)}, false
}

func TestWindowDecisionMatchesGrid(t *testing.T) {
	ms := des.Millisecond
	for _, tc := range []struct {
		name string
		end  des.Time
		w    int // the cell just executed
		next des.Time
	}{
		{"next in the following cell", 10 * ms, 3, 4*ms + ms/2},
		{"next still in the executed cell", 10 * ms, 3, 3*ms + ms/2},
		{"fast-forward over idle cells", 10 * ms, 0, 8*ms + 1},
		{"next on a grid line", 10 * ms, 2, 6 * ms},
		{"next one before a grid line", 10 * ms, 2, 6*ms - 1},
		{"next at end of time", 10 * ms, 4, des.EndOfTime},
		{"next at the horizon", 10 * ms, 4, 10 * ms},
		{"last partial window", 9*ms + ms/2, 3, 9*ms + ms/5},
		{"after the last partial window", 9*ms + ms/2, 9, 9*ms + 7*ms/10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Window: ms, End: tc.end}
			cur := window{des.Time(tc.w) * ms, min(des.Time(tc.w+1)*ms, tc.end)}
			got := cfg.nextWindow(cur, tc.next)
			want, over := gridNext(tc.w, tc.next, ms, tc.end)
			if over != (got.start >= tc.end) || !over && got != want {
				t.Fatalf("nextWindow(%v, %v) = %v, grid rule %v (over %v)", cur, tc.next, got, want, over)
			}
		})
	}
	// Every cell of a horizon that is not a multiple of the window, against
	// every next time on a sub-cell lattice.
	const width, end = 7, 100
	cfg := Config{Window: width, End: end}
	for w := 0; w*width < end; w++ {
		cur := window{des.Time(w) * width, min(des.Time(w+1)*width, end)}
		for next := cur.start; next <= end+2*width; next += 3 {
			got := cfg.nextWindow(cur, next)
			want, over := gridNext(w, next, width, end)
			if over != (got.start >= end) || !over && got != want {
				t.Fatalf("nextWindow(%v, %d) = %v, grid rule %v (over %v)", cur, next, got, want, over)
			}
		}
	}
	// The run's first window is the first cell, cut at a short horizon.
	if got := (&Config{Window: ms, End: ms / 2}).nextWindow(window{}, 0); got != (window{0, ms / 2}) {
		t.Fatalf("first window %v, want [0, %v)", got, ms/2)
	}
}

// assertNoLiveEngines checks that every Run has taken its engines out of
// the count that gates the barrier's spin.
func assertNoLiveEngines(t *testing.T) {
	t.Helper()
	if n := liveEngines.Load(); n != 0 {
		t.Errorf("%d engines still counted live after Run returned", n)
	}
}

func TestStopCancelsRun(t *testing.T) {
	// Constant work on every engine for 100 s; a non-leader engine calls
	// Stop from its handler at t = 10 ms, in window 10. The leader reads the
	// flag at that window's barrier, so the run ends after exactly 11
	// windows. k = 2 fits two processors, so its waiters spin; k above
	// GOMAXPROCS parks them.
	ks := []int{2}
	if p := runtime.GOMAXPROCS(0); p+1 != 2 {
		ks = append(ks, p+1)
	}
	for _, k := range ks {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			s := newSim(t, k, des.Millisecond, 100*des.Second)
			for i := 0; i < k; i++ {
				e := s.Engine(i)
				var gen func(now des.Time)
				gen = func(now des.Time) {
					if next := now + 100*des.Microsecond; next < 100*des.Second {
						e.Schedule(next, gen)
					}
				}
				e.Schedule(0, gen)
			}
			s.Engine(k-1).Schedule(10*des.Millisecond, func(des.Time) { s.Stop() })
			stats := s.Run()
			if !stats.Stopped {
				t.Fatal("Stats.Stopped not set after Stop")
			}
			if stats.Windows != 11 {
				t.Errorf("run executed %d windows, want 11 (stopped in window 10)", stats.Windows)
			}
			if stats.TotalEvents == 0 {
				t.Error("no partial stats reported")
			}
			assertNoLiveEngines(t)
		})
	}
}

// TestTelemetryTimeFront checks the published simulated time front at the
// end of a run. Both runs have events only up to 2.5 ms of a 10 ms horizon
// and fast-forward over the idle windows after them without a publish. The
// run that reaches its horizon reads the horizon; the one stopped in
// window 2 keeps reading that window's end.
func TestTelemetryTimeFront(t *testing.T) {
	for _, stop := range []bool{false, true} {
		t.Run(fmt.Sprintf("stop=%v", stop), func(t *testing.T) {
			tel := telemetry.New(2, 16)
			s, err := New(Config{
				Engines: 2, Window: des.Millisecond, End: 10 * des.Millisecond,
				Sync: cluster.Fixed{CostNS: 1000}, Telemetry: tel,
			})
			if err != nil {
				t.Fatal(err)
			}
			s.Engine(1).Schedule(2500*des.Microsecond, func(des.Time) {
				if stop {
					s.Stop()
				}
			})
			stats := s.Run()
			want := int64(10 * des.Millisecond)
			if stop {
				want = int64(3 * des.Millisecond)
			}
			// Windows 0 and 2 execute; window 1 is idle.
			if stats.Stopped != stop || stats.Windows != 2 {
				t.Fatalf("stopped %v after %d windows, want %v after 2", stats.Stopped, stats.Windows, stop)
			}
			if got := tel.Progress().SimTimeNS; got != want {
				t.Errorf("time front %d ns, want %d", got, want)
			}
		})
	}
}

func TestStopBeforeRunExitsImmediately(t *testing.T) {
	s := newSim(t, 2, des.Millisecond, 10*des.Second)
	s.Engine(0).Schedule(0, func(des.Time) {})
	s.Stop()
	stats := s.Run()
	if !stats.Stopped {
		t.Error("pre-run Stop not honored")
	}
	if stats.Windows > 1 {
		t.Errorf("executed %d windows after pre-run Stop", stats.Windows)
	}
	assertNoLiveEngines(t)
}

func TestTelemetryWindowRecords(t *testing.T) {
	tel := telemetry.New(2, 128)
	s, err := New(Config{
		Engines: 2, Window: des.Millisecond, End: 5 * des.Millisecond,
		Sync: cluster.Fixed{CostNS: 1000}, Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Engine 0: one event per window. Engine 1: a remote send per window.
	for w := 0; w < 5; w++ {
		at := des.Time(w)*des.Millisecond + 100*des.Microsecond
		s.Engine(0).Schedule(at, func(des.Time) {})
	}
	s.Engine(1).Schedule(0, func(now des.Time) {
		s.Engine(1).ScheduleRemoteEvent(0, 2*des.Millisecond, des.Handler(func(des.Time) {}))
	})
	stats := s.Run()

	recs := tel.Windows.Snapshot()
	if len(recs) != stats.Windows {
		t.Fatalf("ring has %d records, stats saw %d windows", len(recs), stats.Windows)
	}
	var evSum, remSum uint64
	for _, r := range recs {
		if len(r.Events) != 2 || len(r.QueueDepth) != 2 || len(r.BarrierWaitNS) != 2 {
			t.Fatalf("record slices wrong shape: %+v", r)
		}
		for _, e := range r.Events {
			evSum += e
		}
		remSum += r.Remote
		if r.EndNS <= r.StartNS {
			t.Errorf("window bounds inverted: %+v", r)
		}
	}
	if evSum != stats.TotalEvents {
		t.Errorf("ring events %d != stats %d", evSum, stats.TotalEvents)
	}
	if remSum != stats.RemoteEvents || remSum != 1 {
		t.Errorf("ring remote %d, stats %d, want 1", remSum, stats.RemoteEvents)
	}
	if !ringClosed(tel.Windows) {
		t.Error("window ring not closed at end of run")
	}
	// The live totals are folded from the same records, and agree with
	// Stats.
	want := telemetry.Progress{
		Windows: uint64(stats.Windows), Events: stats.TotalEvents,
		Remote: stats.RemoteEvents, SimTimeNS: int64(5 * des.Millisecond),
	}
	if got := tel.Progress(); got != want {
		t.Errorf("progress %+v, want %+v", got, want)
	}
	var prom strings.Builder
	if err := telemetry.WritePrometheus(&prom, tel.Gather("r")); err != nil {
		t.Fatal(err)
	}
	for e, n := range stats.EngineEvents {
		if line := fmt.Sprintf("massf_engine_events_total{engine=\"%d\",run=\"r\"} %d\n", e, n); !strings.Contains(prom.String(), line) {
			t.Errorf("missing %q in:\n%s", line, prom.String())
		}
	}
}

func TestMaxPendingReported(t *testing.T) {
	s := newSim(t, 2, des.Millisecond, 2*des.Millisecond)
	for i := 0; i < 10; i++ {
		s.Engine(1).Schedule(des.Time(i)*des.Microsecond, func(des.Time) {})
	}
	stats := s.Run()
	if len(stats.MaxPending) != 2 || stats.MaxPending[1] < 10 {
		t.Errorf("MaxPending = %v, want engine 1 ≥ 10", stats.MaxPending)
	}
}

// TestScheduleRemoteHammerAllEngines hammers the cross-engine exchange
// path from every engine simultaneously: each engine sends a burst to
// every other engine every window, with telemetry enabled, under -race in
// CI. Event conservation is checked exactly.
func TestScheduleRemoteHammerAllEngines(t *testing.T) {
	const (
		engines = 8
		horizon = 40 * des.Millisecond
		burst   = 16
	)
	tel := telemetry.New(engines, 64)
	s, err := New(Config{
		Engines: engines, Window: des.Millisecond, End: horizon,
		Sync: cluster.Fixed{CostNS: 100}, Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sent, received atomic.Uint64
	for i := 0; i < engines; i++ {
		e := s.Engine(i)
		var gen func(now des.Time)
		gen = func(now des.Time) {
			for b := 0; b < burst; b++ {
				dst := (e.ID() + 1 + b%(engines-1)) % engines
				at := now + des.Millisecond + des.Time(b)*des.Microsecond
				if at < horizon {
					sent.Add(1)
					e.ScheduleRemoteEvent(dst, at, des.Handler(func(des.Time) { received.Add(1) }))
				}
			}
			if next := now + 500*des.Microsecond; next < horizon {
				e.Schedule(next, gen)
			}
		}
		e.Schedule(0, gen)
	}
	stats := s.Run()
	if sent.Load() == 0 {
		t.Fatal("hammer generated no remote events")
	}
	if received.Load() != sent.Load() {
		t.Fatalf("remote events lost: sent %d, received %d", sent.Load(), received.Load())
	}
	if stats.RemoteEvents != sent.Load() {
		t.Errorf("Stats.RemoteEvents = %d, want %d", stats.RemoteEvents, sent.Load())
	}
	if got := tel.Progress().Remote; got != sent.Load() {
		t.Errorf("telemetry remote total = %d, want %d", got, sent.Load())
	}
}

func TestFlightRecorderSpans(t *testing.T) {
	tel := telemetry.New(2, 128)
	s, err := New(Config{
		Engines: 2, Window: des.Millisecond, End: 4 * des.Millisecond,
		Sync: cluster.Fixed{CostNS: 1000}, Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		at := des.Time(w)*des.Millisecond + 100*des.Microsecond
		s.Engine(0).Schedule(at, func(des.Time) {})
		s.Engine(1).Schedule(at, func(now des.Time) {
			s.Engine(1).ScheduleRemoteEvent(0, now+des.Millisecond, des.Handler(func(des.Time) {}))
		})
	}
	s.Run()
	recs := tel.Windows.Snapshot()
	if len(recs) == 0 {
		t.Fatal("no window records")
	}
	for i, r := range recs {
		if len(r.ComputeNS) != 2 || len(r.ExchangeNS) != 2 || len(r.RemoteSends) != 2 {
			t.Fatalf("record %d span slices wrong shape: %+v", i, r)
		}
		var rem uint64
		for e := 0; e < 2; e++ {
			if r.ComputeNS[e] < 0 || r.ExchangeNS[e] < 0 || r.BarrierWaitNS[e] < 0 {
				t.Fatalf("record %d has negative span: %+v", i, r)
			}
			rem += r.RemoteSends[e]
		}
		if rem != r.Remote {
			t.Errorf("record %d: per-engine remote sends sum %d != Remote %d", i, rem, r.Remote)
		}
		if i > 0 && r.Seq == recs[i-1].Seq+1 {
			// Barrier wait and exchange are published one window late, so
			// every non-first contiguous record carries the previous
			// window's exchange measurement (≥ 0 wall time, and > 0 once
			// any exchange work happened).
			_ = r.ExchangeNS
		}
	}
	// The real recording must export as a well-formed Chrome trace.
	events := telemetry.BuildTraceEvents(recs, nil)
	last := map[int]float64{}
	tracks := map[int]bool{}
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		tracks[ev.TID] = true
		if prev, ok := last[ev.TID]; ok && ev.TS <= prev {
			t.Fatalf("tid %d: trace starts not strictly increasing", ev.TID)
		}
		last[ev.TID] = ev.TS
	}
	if len(tracks) != 2 {
		t.Errorf("trace has %d tracks, want 2", len(tracks))
	}
}

// ringClosed reports whether r was closed: a subscription taken after
// Close comes back already closed.
func ringClosed(r *telemetry.Ring[telemetry.WindowRecord]) bool {
	_, ch, cancel := r.Subscribe(1)
	defer cancel()
	select {
	case _, open := <-ch:
		return !open
	default:
		return false
	}
}
