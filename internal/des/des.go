// Package des implements a sequential discrete event simulation kernel.
//
// It is the core on which the parallel engine (package pdes) is built: each
// simulation engine node owns one Kernel and advances it in bounded windows.
// The kernel is a classic event-list simulator: a priority queue of timed
// events, a virtual clock, and a processing loop. Simulated time is an int64
// nanosecond count (type Time), which comfortably covers multi-hour
// simulations at sub-microsecond resolution without floating-point drift.
//
// The kernel is built for a zero-allocation steady state: events live in a
// chunked arena recycled through a free list, and the priority queue is
// intrusive over arena nodes, so Schedule/Step touch no allocator once the
// arena has grown to the simulation's standing event population. Callers
// hold value-type Event handles carrying a generation counter; cancelling an
// event that already fired (and whose node may have been reused) is detected
// by a generation mismatch and is a safe no-op.
//
// The queue has three tiers, split by an event's slot (its time in units of
// 2^14 ns ≈ 16.4 µs) against the current slot. Events at or before the
// current slot sit in an exact 4-ary (at, seq) min-heap; events in the next
// 4 095 slots (≈ 67 ms) sit unsorted in a ring of per-slot buckets with an
// occupancy bitmap; later events sit in a second 4-ary heap. When the
// current-slot heap runs dry, the current slot moves to the earliest occupied
// slot, far events now within the ring's reach move into it, and that slot's
// bucket drains into the heap. A bucket drains only after every earlier slot
// has fired, so events fire in exactly (at, seq) order, as from one heap,
// while the heap holds a single slot's events.
package des

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a point in simulated time, in nanoseconds since simulation start.
type Time int64

// Common durations expressed as Time deltas.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// EndOfTime is a sentinel later than any schedulable event.
const EndOfTime Time = math.MaxInt64

// FromFloat returns v units of simulated time rounded to the nearest
// nanosecond: the one conversion from a float knob (seconds, µs) to Time.
// A plain float product truncates — 1.001 s would end at 1 000 999 999 ns.
func FromFloat(v float64, unit Time) Time { return Time(math.Round(v * float64(unit))) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the time with an adaptive unit, e.g. "1.500ms".
func (t Time) String() string {
	switch {
	case t == EndOfTime:
		return "∞"
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// EventHandler is what the kernel stores and fires. Hot paths (the packet
// forwarding loop, TCP retransmission timers) implement it on pooled or
// embedded structs: storing a pointer in the interface does not allocate.
type EventHandler interface {
	OnEvent(now Time)
}

// Handler is the closure form of an EventHandler. It runs on the goroutine
// driving the kernel; it may schedule further events. A func value is
// pointer-shaped, so storing one in the interface allocates nothing either
// (building a capturing closure is the caller's allocation).
type Handler func(now Time)

// OnEvent calls h.
func (h Handler) OnEvent(now Time) { h(now) }

// node is the arena-resident representation of a scheduled event. pos is
// the node's index within its tier — its heap index, or its index in its
// ring bucket — and -1 when the node is free or has fired; the tier itself
// follows from the node's slot and the kernel's current slot. gen increments
// every time the node is released, invalidating any outstanding Event
// handles that point at it.
type node struct {
	at  Time
	eh  EventHandler
	seq uint64
	gen uint32
	pos int32
}

// Event is a cancellable handle to a scheduled event. It is a small value
// (pointer + generation); copy it freely, store it in struct fields, and
// pass &e to Cancel. The zero Event is valid and cancels nothing. A handle
// goes stale the moment its event fires or is cancelled — the generation
// check makes any later Cancel through it a no-op, even if the underlying
// arena node has been reused for a different event.
type Event struct {
	n   *node
	gen uint32
}

// The queue's slot geometry, taken from how far ahead a packet run
// schedules: almost every event lands 2^14–2^27 ns ahead, peaking near
// 8 ms, so a slot holds a handful of events, the ring nearly all of them,
// and the far heap the few beyond 67 ms.
const (
	slotBits  = 14   // a slot is 2^14 ns
	ringSlots = 4096 // the ring holds the ringSlots-1 slots after the current one
	ringMask  = ringSlots - 1
)

func slotOf(t Time) int64 { return int64(t) >> slotBits }

// Kernel is a sequential discrete event simulator. The zero value is ready
// to use. A Kernel is not safe for concurrent use; in the parallel engine
// each engine node drives its own kernel.
type Kernel struct {
	now        Time
	cur        int64    // current slot: q holds exactly the events of slots ≤ cur
	q          nodeHeap // slots ≤ cur
	ring       ring     // slots cur+1 … cur+ringSlots-1
	far        nodeHeap // slots ≥ cur+ringSlots
	free       []*node
	chunks     [][]node
	seq        uint64
	processed  uint64
	maxPending int
	inv        *KernelInvariants // nil: invariant checking disabled
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Processed returns the number of events executed so far. This is the
// "simulation kernel event rate" counter the paper's load metric is built
// from (Section 4.1).
func (k *Kernel) Processed() uint64 { return k.processed }

// Pending returns the number of events waiting in the queue, in all tiers.
func (k *Kernel) Pending() int { return len(k.q) + k.ring.n + len(k.far) }

// MaxPending returns the high-water mark of the queue depth — the largest
// Pending() value ever reached. The telemetry subsystem reports it as the
// per-engine peak queue depth.
func (k *Kernel) MaxPending() int { return k.maxPending }

// chunkSize is the arena growth quantum. Chunks are never freed or moved,
// so *node pointers stay valid for the kernel's lifetime.
const chunkSize = 512

// alloc takes a node from the free list, growing the arena by one chunk
// when empty. Steady state (free list non-empty) performs no allocation.
func (k *Kernel) alloc() *node {
	if n := len(k.free); n > 0 {
		nd := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return nd
	}
	c := make([]node, chunkSize)
	k.chunks = append(k.chunks, c)
	for i := chunkSize - 1; i > 0; i-- {
		c[i].pos = -1
		k.free = append(k.free, &c[i])
	}
	c[0].pos = -1
	return &c[0]
}

// release returns a node to the free list. Bumping the generation first
// invalidates every outstanding handle; clearing the callback drops any
// captured references so they can be collected.
func (k *Kernel) release(nd *node) {
	nd.gen++
	nd.eh = nil
	nd.pos = -1
	k.free = append(k.free, nd)
}

func nodeLess(a, b *node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// nodeHeap is an intrusive 4-ary min-heap of arena nodes keyed (at, seq);
// a node's pos is its index. The current-slot and far tiers are one each.
type nodeHeap []*node

func (h nodeHeap) up(i int) {
	nd := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !nodeLess(nd, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].pos = int32(i)
		i = p
	}
	h[i] = nd
	nd.pos = int32(i)
}

func (h nodeHeap) down(i int) {
	nd := h[i]
	n := len(h)
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
			if nodeLess(h[j], h[m]) {
				m = j
			}
		}
		if !nodeLess(h[m], nd) {
			break
		}
		h[i] = h[m]
		h[i].pos = int32(i)
		i = m
	}
	h[i] = nd
	nd.pos = int32(i)
}

func (h *nodeHeap) push(nd *node) {
	*h = append(*h, nd)
	h.up(len(*h) - 1)
}

func (h *nodeHeap) pop() *node {
	q := *h
	nd := q[0]
	last := len(q) - 1
	if last > 0 {
		q[0] = q[last]
		q[0].pos = 0
	}
	q[last] = nil
	q = q[:last]
	*h = q
	if last > 1 {
		q.down(0)
	}
	nd.pos = -1
	return nd
}

// remove deletes the node at heap index i, restoring heap order.
func (h *nodeHeap) remove(i int) {
	q := *h
	last := len(q) - 1
	nd := q[i]
	if i != last {
		q[i] = q[last]
		q[i].pos = int32(i)
	}
	q[last] = nil
	q = q[:last]
	*h = q
	if i < last {
		q.down(i)
		q.up(i)
	}
	nd.pos = -1
}

// ring is the near-future tier: one unsorted bucket per slot, indexed by
// the slot mod ringSlots, and a bitmap of the non-empty buckets. Both
// arrays are allocated on first use.
type ring struct {
	n    int                     // events in all buckets
	bits *[ringSlots / 64]uint64 // bit i set: bucket i is non-empty
	b    *[ringSlots][]*node
}

func (r *ring) add(nd *node, slot int64) {
	if r.b == nil {
		r.bits = new([ringSlots / 64]uint64)
		r.b = new([ringSlots][]*node)
	}
	i := int(slot & ringMask)
	nd.pos = int32(len(r.b[i]))
	r.b[i] = append(r.b[i], nd)
	r.bits[i>>6] |= 1 << (i & 63)
	r.n++
}

// remove takes nd out of its bucket, moving the bucket's last event into
// its place.
func (r *ring) remove(nd *node) {
	i := int(slotOf(nd.at) & ringMask)
	b := r.b[i]
	last := len(b) - 1
	if p := nd.pos; int(p) != last {
		b[p] = b[last]
		b[p].pos = p
	}
	b[last] = nil
	r.b[i] = b[:last]
	if last == 0 {
		r.bits[i>>6] &^= 1 << (i & 63)
	}
	r.n--
	nd.pos = -1
}

// bucketKeep is the largest array a drained bucket keeps for the next slot
// that maps to it. A bucket that held a larger burst gives its array back:
// otherwise, over a few wraps, every one of the 4 096 buckets would pin an
// array as large as the largest burst any slot ever saw.
const bucketKeep = 64

// drain moves every event of bucket i into h.
func (r *ring) drain(i int, h *nodeHeap) {
	b := r.b[i]
	for _, nd := range b {
		h.push(nd)
	}
	if cap(b) > bucketKeep {
		r.b[i] = nil
	} else {
		clear(b)
		r.b[i] = b[:0]
	}
	r.bits[i>>6] &^= 1 << (i & 63)
	r.n -= len(b)
}

// next returns the earliest occupied slot after cur; the ring must not be
// empty. Bucket cur mod ringSlots is always empty, so a scan that wraps
// back to its first word finds the latest slots below the start bit.
func (r *ring) next(cur int64) int64 {
	start := int((cur + 1) & ringMask)
	w := start >> 6
	word := r.bits[w] &^ (1<<(start&63) - 1)
	for word == 0 {
		w = (w + 1) & (len(r.bits) - 1)
		word = r.bits[w]
	}
	i := w<<6 | bits.TrailingZeros64(word)
	return cur + 1 + int64((i-start)&ringMask)
}

// place queues nd in the tier its slot belongs to.
func (k *Kernel) place(nd *node) {
	switch s := slotOf(nd.at); {
	case s <= k.cur:
		k.q.push(nd)
	case s < k.cur+ringSlots:
		k.ring.add(nd, s)
	default:
		k.far.push(nd)
	}
}

// advance refills the empty current-slot heap from the earliest occupied
// slot, unless that slot starts at or after limit: the current slot moves
// there, far events now within the ring's reach move into it, and the
// slot's bucket drains into the heap. It reports whether it refilled the
// heap. Stopping at limit keeps the current slot at the clock, so events a
// window's barrier delivers still land in the ring rather than the heap.
func (k *Kernel) advance(limit Time) bool {
	var s int64
	switch {
	case k.ring.n > 0:
		s = k.ring.next(k.cur)
	case len(k.far) > 0:
		s = slotOf(k.far[0].at)
	default:
		return false
	}
	if Time(s<<slotBits) >= limit {
		return false
	}
	k.cur = s
	for len(k.far) > 0 && slotOf(k.far[0].at) < s+ringSlots {
		k.place(k.far.pop())
	}
	if k.ring.n > 0 {
		k.ring.drain(int(s&ringMask), &k.q)
	}
	return true
}

// ScheduleEvent enqueues eh.OnEvent to run at time at and returns a value
// handle for cancellation. It allocates nothing once the arena has grown.
// It panics if at precedes the current clock: a conservative simulator must
// never schedule into its past. The (at, seq) key — seq strictly increasing
// per kernel — is a total order, so execution order is independent of the
// queue's shape and replay stays deterministic across data-structure
// changes.
func (k *Kernel) ScheduleEvent(at Time, eh EventHandler) Event {
	if at < k.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", at, k.now))
	}
	nd := k.alloc()
	nd.at = at
	nd.eh = eh
	nd.seq = k.seq
	k.seq++
	k.place(nd)
	if p := k.Pending(); p > k.maxPending {
		k.maxPending = p
	}
	return Event{n: nd, gen: nd.gen}
}

// Cancel removes a previously scheduled event. Cancelling an event that has
// already fired or been cancelled — or passing nil or the zero Event — is a
// no-op: the generation check detects stale handles even after the arena
// node has been reused.
func (k *Kernel) Cancel(e *Event) {
	if e == nil || e.n == nil || e.n.gen != e.gen || e.n.pos < 0 {
		return
	}
	nd := e.n
	switch s := slotOf(nd.at); {
	case s <= k.cur:
		k.q.remove(int(nd.pos))
	case s < k.cur+ringSlots:
		k.ring.remove(nd)
	default:
		k.far.remove(int(nd.pos))
	}
	k.release(nd)
}

// NextEventTime returns the timestamp of the earliest pending event, or
// EndOfTime if the queue is empty. It moves no event between tiers.
func (k *Kernel) NextEventTime() Time {
	switch {
	case len(k.q) > 0:
		return k.q[0].at
	case k.ring.n > 0:
		at := EndOfTime
		for _, nd := range k.ring.b[k.ring.next(k.cur)&ringMask] {
			at = min(at, nd.at)
		}
		return at
	case len(k.far) > 0:
		return k.far[0].at
	}
	return EndOfTime
}

// Step executes the single earliest event. It reports false if the queue is
// empty or the earliest event is at or beyond limit (the event is left
// queued and the clock does not pass limit). The node is released before
// the callback runs, so a handler may immediately schedule new events that
// reuse it.
func (k *Kernel) Step(limit Time) bool {
	if len(k.q) == 0 && !k.advance(limit) {
		return false
	}
	if k.q[0].at >= limit {
		return false
	}
	nd := k.q.pop()
	if k.inv != nil {
		k.stepCheck(nd)
	}
	k.now = nd.at
	k.processed++
	eh := nd.eh
	k.release(nd)
	eh.OnEvent(k.now)
	return true
}

// RunUntil executes all events strictly before limit and then advances the
// clock to limit. It returns the number of events executed. This is the
// window-execution primitive used by the conservative parallel engine: with
// limit = windowEnd, no event at or after the barrier may fire.
func (k *Kernel) RunUntil(limit Time) uint64 {
	var n uint64
	for k.Step(limit) {
		n++
	}
	if limit > k.now && limit != EndOfTime {
		k.now = limit
	}
	return n
}
