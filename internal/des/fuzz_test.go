package des

import "testing"

// FuzzKernelSchedule drives the kernel with a byte-coded op sequence
// (schedule, schedule-at-duplicate-time, cancel, cancel-stale, step) while a
// naive reference model tracks the expected execution order under the
// (at, seq) total order. EveryStep invariants are on, so any heap-order or
// arena corruption trips immediately rather than as a wrong firing order.
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

		schedule := func(at Time) {
			id := nextID
			nextID++
			ev := k.ScheduleEvent(at, Handler(func(Time) { fired = append(fired, id) }))
			pending = append(pending, pend{at: at, id: id, ev: ev})
		}

		stepOnce := func() {
			if len(pending) == 0 {
				if k.Step(EndOfTime) {
					t.Fatal("Step executed an event the model does not know about")
				}
				return
			}
			// Expected next: earliest at; schedule order (== seq order)
			// breaks ties, which the ascending scan with strict < gives us.
			mi := 0
			for i := 1; i < len(pending); i++ {
				if pending[i].at < pending[mi].at {
					mi = i
				}
			}
			want := pending[mi]
			before := len(fired)
			if !k.Step(EndOfTime) {
				t.Fatalf("Step refused with %d events pending", len(pending))
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
			switch next() % 6 {
			case 0, 1:
				schedule(k.Now() + Time(next()))
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
				stepOnce()
			case 5: // cancelling a fired handle must be a generation-checked no-op
				if len(stale) > 0 {
					before := k.Pending()
					k.Cancel(&stale[int(next())%len(stale)])
					if k.Pending() != before {
						t.Fatal("stale Cancel removed a live event")
					}
				}
			}
		}
		for len(pending) > 0 {
			stepOnce()
		}
		if k.Pending() != 0 {
			t.Fatalf("%d events left queued after drain", k.Pending())
		}
		if err := k.VerifyInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
