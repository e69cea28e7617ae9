package vcpu

import (
	"testing"
	"testing/quick"

	"massf/internal/des"
)

// kernelSched adapts a bare des.Kernel to the Scheduler interface.
type kernelSched struct{ k *des.Kernel }

func (s kernelSched) Now() des.Time { return s.k.Now() }
func (s kernelSched) Schedule(at des.Time, h des.Handler) des.Event {
	return s.k.ScheduleFunc(at, h)
}
func (s kernelSched) Cancel(e des.Event) { s.k.Cancel(&e) }

func run(k *des.Kernel) { k.Run(des.EndOfTime) }

func TestSingleTaskTakesWorkOverSpeed(t *testing.T) {
	var k des.Kernel
	c := New(kernelSched{&k}, 2.0) // double speed
	var doneAt des.Time
	c.Submit(2*des.Second, func(at des.Time) { doneAt = at })
	run(&k)
	if doneAt != des.Second {
		t.Errorf("2s of work at 2× finished at %v, want 1s", doneAt)
	}
}

func TestProcessorSharingTwoTasks(t *testing.T) {
	var k des.Kernel
	c := New(kernelSched{&k}, 1.0)
	var d1, d2 des.Time
	c.Submit(des.Second, func(at des.Time) { d1 = at })
	c.Submit(des.Second, func(at des.Time) { d2 = at })
	run(&k)
	// Two equal tasks sharing one CPU both finish at 2s.
	if d1 != 2*des.Second || d2 != 2*des.Second {
		t.Errorf("shared tasks finished at %v and %v, want 2s each", d1, d2)
	}
}

func TestUnequalTasks(t *testing.T) {
	var k des.Kernel
	c := New(kernelSched{&k}, 1.0)
	var short, long des.Time
	c.Submit(des.Second, func(at des.Time) { short = at })
	c.Submit(3*des.Second, func(at des.Time) { long = at })
	run(&k)
	// Shared until the short task finishes: short needs 1s of work at
	// half throughput → 2s. Long then has 2s left alone → 4s total.
	if short != 2*des.Second {
		t.Errorf("short task at %v, want 2s", short)
	}
	if long != 4*des.Second {
		t.Errorf("long task at %v, want 4s", long)
	}
}

func TestLateArrivalContention(t *testing.T) {
	var k des.Kernel
	c := New(kernelSched{&k}, 1.0)
	var first des.Time
	c.Submit(2*des.Second, func(at des.Time) { first = at })
	// A second task arrives at t=1s, when the first has 1s left.
	k.ScheduleFunc(des.Second, func(des.Time) {
		c.Submit(des.Second, func(des.Time) {})
	})
	run(&k)
	// First runs alone for 1s (1s left), then shares: +2s → 3s.
	if first != 3*des.Second {
		t.Errorf("first task at %v, want 3s", first)
	}
}

func TestZeroWorkCompletes(t *testing.T) {
	var k des.Kernel
	c := New(kernelSched{&k}, 1.0)
	done := false
	c.Submit(0, func(des.Time) { done = true })
	run(&k)
	if !done {
		t.Error("zero-work task never completed")
	}
}

func TestLoadCounter(t *testing.T) {
	var k des.Kernel
	c := New(kernelSched{&k}, 1.0)
	c.Submit(des.Second, nil)
	c.Submit(des.Second, nil)
	if c.Load() != 2 {
		t.Errorf("Load = %d, want 2", c.Load())
	}
	run(&k)
	if c.Load() != 0 {
		t.Errorf("Load after drain = %d, want 0", c.Load())
	}
}

func TestNewPanicsOnBadSpeed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("speed 0 accepted")
		}
	}()
	var k des.Kernel
	New(kernelSched{&k}, 0)
}

// Property: total CPU time consumed equals total work submitted divided by
// speed, regardless of arrival pattern (work conservation).
func TestQuickWorkConservation(t *testing.T) {
	f := func(works []uint16, speedRaw uint8) bool {
		if len(works) == 0 || len(works) > 20 {
			return true
		}
		speed := 0.5 + float64(speedRaw%8)/2
		var k des.Kernel
		c := New(kernelSched{&k}, speed)
		var total float64
		var lastDone des.Time
		for _, w := range works {
			work := des.Time(int64(w)+1) * des.Microsecond
			total += float64(work)
			c.Submit(work, func(at des.Time) {
				if at > lastDone {
					lastDone = at
				}
			})
		}
		run(&k)
		// All submitted at t=0: the CPU is never idle until the last
		// completion, so lastDone == total/speed (within ns rounding).
		want := total / speed
		diff := float64(lastDone) - want
		if diff < 0 {
			diff = -diff
		}
		return diff <= float64(len(works)+1)*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
