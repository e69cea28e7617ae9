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
// chunked arena recycled through a free list, and the priority queue is an
// intrusive 4-ary min-heap over arena nodes, so Schedule/Step touch no
// allocator once the arena has grown to the simulation's standing event
// population. Callers hold value-type Event handles carrying a generation
// counter; cancelling an event that already fired (and whose node may have
// been reused) is detected by a generation mismatch and is a safe no-op.
package des

import (
	"fmt"
	"math"
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
// the node's index in the kernel's heap, -1 when the node is free or has
// fired; gen increments every time the node is released, invalidating any
// outstanding Event handles that point at it.
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

// Kernel is a sequential discrete event simulator. The zero value is ready
// to use. A Kernel is not safe for concurrent use; in the parallel engine
// each engine node drives its own kernel.
type Kernel struct {
	now        Time
	q          []*node // intrusive 4-ary min-heap keyed (at, seq)
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

// Pending returns the number of events waiting in the queue.
func (k *Kernel) Pending() int { return len(k.q) }

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

func (k *Kernel) up(i int) {
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

func (k *Kernel) down(i int) {
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

func (k *Kernel) push(nd *node) {
	nd.pos = int32(len(k.q))
	k.q = append(k.q, nd)
	k.up(len(k.q) - 1)
}

func (k *Kernel) popMin() *node {
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

// remove deletes the node at heap index i, restoring heap order.
func (k *Kernel) remove(i int) {
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

// ScheduleEvent enqueues eh.OnEvent to run at time at and returns a value
// handle for cancellation. It allocates nothing once the arena has grown.
// It panics if at precedes the current clock: a conservative simulator must
// never schedule into its past. The (at, seq) key — seq strictly increasing
// per kernel — is a total order, so execution order is independent of heap
// shape and replay stays deterministic across data-structure changes.
func (k *Kernel) ScheduleEvent(at Time, eh EventHandler) Event {
	if at < k.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", at, k.now))
	}
	nd := k.alloc()
	nd.at = at
	nd.eh = eh
	nd.seq = k.seq
	k.seq++
	k.push(nd)
	if len(k.q) > k.maxPending {
		k.maxPending = len(k.q)
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
	k.remove(int(nd.pos))
	k.release(nd)
}

// NextEventTime returns the timestamp of the earliest pending event, or
// EndOfTime if the queue is empty.
func (k *Kernel) NextEventTime() Time {
	if len(k.q) == 0 {
		return EndOfTime
	}
	return k.q[0].at
}

// Step executes the single earliest event. It reports false if the queue is
// empty or the earliest event is at or beyond limit (the event is left
// queued and the clock does not pass limit). The node is released before
// the callback runs, so a handler may immediately schedule new events that
// reuse it.
func (k *Kernel) Step(limit Time) bool {
	if len(k.q) == 0 || k.q[0].at >= limit {
		return false
	}
	nd := k.popMin()
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

// Run executes events until the queue drains or the clock would pass
// horizon, then — like RunUntil — advances the clock to a finite horizon.
// (Run(EndOfTime) leaves the clock at the last event executed.) Run and
// RunUntil are deliberately the same operation: an earlier version of Run
// left the clock behind on early drain, which made "run to the horizon"
// mean two different times depending on which entry point was used.
func (k *Kernel) Run(horizon Time) uint64 {
	return k.RunUntil(horizon)
}
