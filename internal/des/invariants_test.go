package des

import (
	"strings"
	"testing"
)

// collectInv returns invariants that record violations instead of
// panicking, plus the slice they land in.
func collectInv(everyStep bool) (*KernelInvariants, *[]error) {
	var got []error
	inv := &KernelInvariants{
		EveryStep: everyStep,
		Fail:      func(err error) { got = append(got, err) },
	}
	return inv, &got
}

func TestVerifyInvariantsCleanKernel(t *testing.T) {
	var k Kernel
	if err := k.VerifyInvariants(); err != nil {
		t.Fatalf("zero kernel: %v", err)
	}
	var fired int
	for i := 0; i < 2000; i++ {
		k.ScheduleEvent(Time(i%37), Handler(func(Time) { fired++ }))
	}
	if err := k.VerifyInvariants(); err != nil {
		t.Fatalf("after schedule: %v", err)
	}
	k.RunUntil(EndOfTime)
	if fired != 2000 {
		t.Fatalf("fired %d, want 2000", fired)
	}
	if err := k.VerifyInvariants(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

func TestVerifyInvariantsAfterCancel(t *testing.T) {
	var k Kernel
	var evs []Event
	for i := 0; i < 600; i++ {
		evs = append(evs, k.ScheduleEvent(Time(i), Handler(func(Time) {})))
	}
	for i := 0; i < len(evs); i += 3 {
		k.Cancel(&evs[i])
	}
	if err := k.VerifyInvariants(); err != nil {
		t.Fatalf("after cancel: %v", err)
	}
	k.RunUntil(EndOfTime)
	if err := k.VerifyInvariants(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

func TestVerifyInvariantsDetectsHeapCorruption(t *testing.T) {
	var k Kernel
	for i := 0; i < 64; i++ {
		k.ScheduleEvent(Time(64-i), Handler(func(Time) {}))
	}
	// Corrupt the heap directly: swap the root with the last leaf without
	// fixing positions or order.
	last := len(k.q) - 1
	k.q[0], k.q[last] = k.q[last], k.q[0]
	k.q[0].pos, k.q[last].pos = 0, int32(last)
	err := k.VerifyInvariants()
	if err == nil || !strings.Contains(err.Error(), "heap order violated") {
		t.Fatalf("want heap order violation, got %v", err)
	}
}

func TestVerifyInvariantsDetectsPositionCorruption(t *testing.T) {
	var k Kernel
	for i := 0; i < 8; i++ {
		k.ScheduleEvent(Time(i), Handler(func(Time) {}))
	}
	k.q[3].pos = 7
	err := k.VerifyInvariants()
	if err == nil || !strings.Contains(err.Error(), "pos") {
		t.Fatalf("want position violation, got %v", err)
	}
}

func TestVerifyInvariantsDetectsArenaLeak(t *testing.T) {
	var k Kernel
	e := k.ScheduleEvent(10, Handler(func(Time) {}))
	// Simulate a leak: remove the node from the heap without releasing it.
	k.q.remove(int(e.n.pos))
	err := k.VerifyInvariants()
	if err == nil || !strings.Contains(err.Error(), "arena leak") {
		t.Fatalf("want arena leak, got %v", err)
	}
}

// Corruptions of the ring and the far heap — states only a queue bug can
// produce — are each named by VerifyInvariants.
func TestVerifyInvariantsDetectsTierCorruption(t *testing.T) {
	ringNode := func(k *Kernel) *node { return k.ring.b[slotOf(5*Millisecond)&ringMask][0] }
	cases := []struct {
		name    string
		corrupt func(k *Kernel)
		want    string
	}{
		{"mis-bucketed ring node", func(k *Kernel) {
			nd := ringNode(k)
			k.ring.remove(nd)
			k.ring.add(nd, slotOf(nd.at)+1)
		}, "whose bucket is"},
		{"far heap order", func(k *Kernel) {
			last := len(k.far) - 1
			k.far[0], k.far[last] = k.far[last], k.far[0]
			k.far[0].pos, k.far[last].pos = 0, int32(last)
		}, "heap order violated in far heap"},
		{"ring node in the far heap", func(k *Kernel) {
			nd := ringNode(k)
			k.ring.remove(nd)
			k.far.push(nd)
		}, "outside its tier"},
		{"occupancy bit of an empty bucket", func(k *Kernel) {
			i := int(slotOf(5*Millisecond)+1) & ringMask
			k.ring.bits[i>>6] |= 1 << (i & 63)
		}, "marked occupied but empty"},
	}
	for _, c := range cases {
		var k Kernel
		for i := 0; i < 64; i++ {
			k.ScheduleEvent(Time(i)*Millisecond, Handler(func(Time) {}))
			k.ScheduleEvent(Second+Time(64-i)*Millisecond, Handler(func(Time) {}))
		}
		if err := k.VerifyInvariants(); err != nil {
			t.Fatalf("%s: before corruption: %v", c.name, err)
		}
		c.corrupt(&k)
		if err := k.VerifyInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: want %q, got %v", c.name, c.want, err)
		}
	}
}

func TestStepCheckDetectsExecBeforeNow(t *testing.T) {
	var k Kernel
	inv, got := collectInv(false)
	k.SetInvariants(inv)
	k.ScheduleEvent(50, Handler(func(Time) {}))
	// Force the clock past the pending event — the kind of state only a
	// bug (or this test) can produce — and execute it.
	k.now = 100
	if !k.Step(EndOfTime) {
		t.Fatal("Step executed nothing")
	}
	if len(*got) != 1 || !strings.Contains((*got)[0].Error(), "before now") {
		t.Fatalf("want one exec-before-now violation, got %v", *got)
	}
}

func TestEveryStepVerifiesCleanRun(t *testing.T) {
	var k Kernel
	inv, got := collectInv(true)
	k.SetInvariants(inv)
	for i := 0; i < 500; i++ {
		i := i
		k.ScheduleEvent(Time(i%13), Handler(func(now Time) {
			if i%5 == 0 {
				k.ScheduleEvent(now+3, Handler(func(Time) {}))
			}
		}))
	}
	k.RunUntil(EndOfTime)
	if len(*got) != 0 {
		t.Fatalf("clean run reported violations: %v", *got)
	}
	if err := k.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsNilFailPanics(t *testing.T) {
	var k Kernel
	k.SetInvariants(&KernelInvariants{})
	k.ScheduleEvent(50, Handler(func(Time) {}))
	k.now = 100
	defer func() {
		if recover() == nil {
			t.Fatal("want panic from nil Fail")
		}
	}()
	k.Step(EndOfTime)
}
