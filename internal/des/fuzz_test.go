package des

import "testing"

// delayShifts scale a fuzzed byte into a schedule-ahead delay of up to
// 255 ns (the current slot), 130 µs (the next few slots), 16.7 ms (the
// ring) or 2.1 s (the ring and the far heap).
var delayShifts = [4]uint{0, 9, 16, 23}

// FuzzKernelSchedule drives the kernel with a byte-coded op sequence
// (schedule, schedule-at-duplicate-time, cancel, cancel-stale, step, step
// below a limit) while a naive reference model tracks the expected
// execution order under the (at, seq) total order. A delay is a byte scaled
// by one of delayShifts, so schedules and cancels reach every tier of the
// queue and a long enough sequence wraps the ring. EveryStep invariants are
// on, so any tier, heap-order or arena corruption trips immediately rather
// than as a wrong firing order.
func FuzzKernelSchedule(f *testing.F) {
	f.Add([]byte("0123456789abcdefghij"))
	f.Add([]byte{0, 10, 0, 10, 2, 0, 4, 4, 4, 3, 0, 5, 0})
	f.Add([]byte{0, 255, 1, 0, 2, 1, 3, 1, 4, 0, 200, 4, 4, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var k Kernel
		k.SetInvariants(&KernelInvariants{
			EveryStep: true,
			Fail:      func(err error) { t.Fatal(err) },
		})

		type pend struct {
			at Time
			id int
			ev Event
		}
		var pending []pend
		var stale []Event // handles whose events already fired
		var fired []int
		nextID := 0

		pos := 0
		next := func() byte {
			if pos < len(data) {
				b := data[pos]
				pos++
				return b
			}
			return 0
		}
		delay := func() Time {
			shift := delayShifts[next()&3]
			return Time(next()) << shift
		}

		schedule := func(at Time) {
			id := nextID
			nextID++
			ev := k.ScheduleEvent(at, Handler(func(Time) { fired = append(fired, id) }))
			pending = append(pending, pend{at: at, id: id, ev: ev})
		}

		// step fires the model's next event if it lies before limit and
		// checks that the kernel fires the same one, or nothing.
		step := func(limit Time) {
			// Expected next: earliest at; schedule order (== seq order)
			// breaks ties, which the ascending scan with strict < gives us.
			mi := -1
			for i := range pending {
				if mi < 0 || pending[i].at < pending[mi].at {
					mi = i
				}
			}
			if mi < 0 || pending[mi].at >= limit {
				now := k.Now()
				if k.Step(limit) {
					t.Fatalf("Step(%v) executed an event the model holds back", limit)
				}
				if k.Now() != now {
					t.Fatalf("refused Step(%v) moved the clock from %v to %v", limit, now, k.Now())
				}
				return
			}
			want := pending[mi]
			before := len(fired)
			if !k.Step(limit) {
				t.Fatalf("Step(%v) refused with the event at %v pending", limit, want.at)
			}
			if len(fired) != before+1 || fired[len(fired)-1] != want.id {
				t.Fatalf("fired event %v, model expected id %d (t=%v)", fired[before:], want.id, want.at)
			}
			if k.Now() != want.at {
				t.Fatalf("clock at %v after firing event scheduled for %v", k.Now(), want.at)
			}
			stale = append(stale, want.ev)
			pending = append(pending[:mi], pending[mi+1:]...)
		}

		for pos < len(data) && nextID < 4096 {
			switch next() % 7 {
			case 0, 1:
				schedule(k.Now() + delay())
			case 2: // duplicate timestamp: exercises the seq tie-break
				if len(pending) > 0 {
					schedule(pending[int(next())%len(pending)].at)
				}
			case 3:
				if len(pending) > 0 {
					j := int(next()) % len(pending)
					k.Cancel(&pending[j].ev)
					pending = append(pending[:j], pending[j+1:]...)
				}
			case 4:
				step(EndOfTime)
			case 5: // cancelling a fired handle must be a generation-checked no-op
				if len(stale) > 0 {
					before := k.Pending()
					k.Cancel(&stale[int(next())%len(stale)])
					if k.Pending() != before {
						t.Fatal("stale Cancel removed a live event")
					}
				}
			case 6:
				step(k.Now() + delay())
			}
		}
		for len(pending) > 0 {
			step(EndOfTime)
		}
		if k.Pending() != 0 {
			t.Fatalf("%d events left queued after drain", k.Pending())
		}
		if err := k.VerifyInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
