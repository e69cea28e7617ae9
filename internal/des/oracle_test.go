package des

import (
	"math/rand"
	"slices"
	"testing"
)

// refKernel is the kernel's queue before it was tiered: one intrusive 4-ary
// (at, seq) min-heap over every pending event, its sift code kept line for
// line. It is the order oracle for the tiered queue. Its nodes come from
// new, not from an arena, so a handle never goes stale by reuse.
type refKernel struct {
	now Time
	q   []*node
	seq uint64
}

func (k *refKernel) up(i int) {
	nd := k.q[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !nodeLess(nd, k.q[p]) {
			break
		}
		k.q[i] = k.q[p]
		k.q[i].pos = int32(i)
		i = p
	}
	k.q[i] = nd
	nd.pos = int32(i)
}

func (k *refKernel) down(i int) {
	nd := k.q[i]
	n := len(k.q)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if nodeLess(k.q[j], k.q[m]) {
				m = j
			}
		}
		if !nodeLess(k.q[m], nd) {
			break
		}
		k.q[i] = k.q[m]
		k.q[i].pos = int32(i)
		i = m
	}
	k.q[i] = nd
	nd.pos = int32(i)
}

func (k *refKernel) push(nd *node) {
	nd.pos = int32(len(k.q))
	k.q = append(k.q, nd)
	k.up(len(k.q) - 1)
}

func (k *refKernel) popMin() *node {
	nd := k.q[0]
	last := len(k.q) - 1
	if last > 0 {
		k.q[0] = k.q[last]
		k.q[0].pos = 0
	}
	k.q[last] = nil
	k.q = k.q[:last]
	if last > 1 {
		k.down(0)
	}
	nd.pos = -1
	return nd
}

func (k *refKernel) remove(i int) {
	last := len(k.q) - 1
	nd := k.q[i]
	if i != last {
		k.q[i] = k.q[last]
		k.q[i].pos = int32(i)
	}
	k.q[last] = nil
	k.q = k.q[:last]
	if i < last {
		k.down(i)
		k.up(i)
	}
	nd.pos = -1
}

func (k *refKernel) Now() Time    { return k.now }
func (k *refKernel) Pending() int { return len(k.q) }

func (k *refKernel) schedule(at Time, eh EventHandler) (cancel func()) {
	if at < k.now {
		panic("refKernel: schedule into the past")
	}
	nd := &node{at: at, eh: eh, seq: k.seq}
	k.seq++
	k.push(nd)
	return func() {
		if nd.pos >= 0 {
			k.remove(int(nd.pos))
		}
	}
}

func (k *refKernel) NextEventTime() Time {
	if len(k.q) == 0 {
		return EndOfTime
	}
	return k.q[0].at
}

func (k *refKernel) Step(limit Time) bool {
	if len(k.q) == 0 || k.q[0].at >= limit {
		return false
	}
	nd := k.popMin()
	k.now = nd.at
	nd.eh.OnEvent(k.now)
	return true
}

func (k *refKernel) RunUntil(limit Time) uint64 {
	var n uint64
	for k.Step(limit) {
		n++
	}
	if limit > k.now && limit != EndOfTime {
		k.now = limit
	}
	return n
}

// orderQueue is what the order oracle drives on both kernels.
type orderQueue interface {
	Now() Time
	schedule(at Time, eh EventHandler) (cancel func())
	Step(limit Time) bool
	RunUntil(limit Time) uint64
	NextEventTime() Time
	Pending() int
}

type tieredQueue struct{ *Kernel }

func (k tieredQueue) schedule(at Time, eh EventHandler) func() {
	e := k.ScheduleEvent(at, eh)
	return func() { k.Cancel(&e) }
}

// driveOrder runs one seeded stream of schedules, cancels, limited steps
// and window runs on q, and returns everything it observed: fired event
// ids with their times, Step and RunUntil results, next-event times and
// queue depths. Delays reach the current slot, the ring and the far heap;
// every third event schedules a child when it fires; cancels hit live,
// fired and cancelled handles alike; and the clock runs long enough for
// the ring to wrap many times.
func driveOrder(q orderQueue, seed int64, ops int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	delay := func() Time {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return Time(rng.Int63n(1 << slotBits))
		case 2:
			return Time(rng.Int63n(ringSlots << slotBits))
		default:
			return Time(rng.Int63n(4 * ringSlots << slotBits))
		}
	}
	var obs []int64
	var cancels []func()
	var ats []Time
	var schedule func(at Time)
	schedule = func(at Time) {
		id := int64(len(cancels))
		ats = append(ats, at)
		cancels = append(cancels, q.schedule(at, Handler(func(now Time) {
			obs = append(obs, id, int64(now))
			if id%3 == 0 {
				schedule(now + delay())
			}
		})))
	}
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(20); {
		case r < 8:
			schedule(q.Now() + delay())
		case r < 10: // a time already used: the seq tie-break
			if len(ats) > 0 {
				if at := ats[rng.Intn(len(ats))]; at >= q.Now() {
					schedule(at)
				}
			}
		case r < 13:
			if len(cancels) > 0 {
				cancels[rng.Intn(len(cancels))]()
			}
		case r < 18:
			fired := int64(0)
			if q.Step(q.Now() + delay()) {
				fired = 1
			}
			obs = append(obs, -1, fired, int64(q.Now()))
		case r < 19:
			obs = append(obs, -2, int64(q.RunUntil(q.Now()+delay())), int64(q.Now()))
		default:
			obs = append(obs, -3, int64(q.NextEventTime()), int64(q.Pending()))
		}
	}
	return append(obs, -4, int64(q.RunUntil(EndOfTime)), int64(q.Now()), int64(q.Pending()))
}

// The tiered queue fires exactly what the single heap it replaced fires,
// in the same order, under every operation the kernel offers. The first
// seeds also audit the structure after every step.
func TestQueueOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		var k Kernel
		k.SetInvariants(&KernelInvariants{
			EveryStep: seed <= 4,
			Fail:      func(err error) { t.Fatalf("seed %d: %v", seed, err) },
		})
		got := driveOrder(tieredQueue{&k}, seed, 4000)
		want := driveOrder(&refKernel{}, seed, 4000)
		if !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: tiered queue diverges from the reference at observation %d of %d: got %v, want %v",
				seed, i, len(want), got[i:min(i+6, len(got))], want[i:min(i+6, len(want))])
		}
		if err := k.VerifyInvariants(); err != nil {
			t.Fatalf("seed %d: after drain: %v", seed, err)
		}
	}
}
