// Runtime invariant checking for the kernel. The hooks are nil-disabled:
// a Kernel with no KernelInvariants attached pays exactly one predictable
// pointer test per executed event on the hot path, and the steady-state
// allocation test (TestKernelSteadyStateZeroAllocs) runs with the hooks
// off. Tests, fuzz targets and the simcheck conformance oracle attach
// hooks to catch queue-order corruption, arena leaks and time-travel bugs
// the moment they happen instead of as downstream stat divergence.
package des

import (
	"fmt"
	"math"
	"math/bits"
)

// KernelInvariants configures runtime invariant checking for one Kernel.
// Attach with Kernel.SetInvariants. The zero value checks only the cheap
// per-event property (no event executes before the kernel clock) and
// panics on violation.
type KernelInvariants struct {
	// EveryStep runs the full structural verification (VerifyInvariants)
	// after every popped event. O(pending) per event — for tests and
	// fuzzing only.
	EveryStep bool
	// Fail receives each detected violation. Nil panics, which is what the
	// fuzz targets want; collectors (the conformance oracle) install a
	// recording func instead.
	Fail func(error)
}

// SetInvariants attaches (or, with nil, detaches) runtime invariant
// checking. Safe only between events — the kernel is single-threaded, so
// any handler or setup code may call it.
func (k *Kernel) SetInvariants(inv *KernelInvariants) { k.inv = inv }

func (k *Kernel) invFail(err error) {
	if k.inv != nil && k.inv.Fail != nil {
		k.inv.Fail(err)
		return
	}
	panic(err)
}

// stepCheck runs the enabled per-event checks for the node about to
// execute. Called from Step after the pop and before the clock advances,
// so nd.at < k.now means the queue yielded an event from the kernel's
// past. Kept out of Step's body so the common nil-hook path stays small.
func (k *Kernel) stepCheck(nd *node) {
	if nd.at < k.now {
		k.invFail(fmt.Errorf("des: executing event at %v before now %v (seq %d)", nd.at, k.now, nd.seq))
	}
	if k.inv.EveryStep {
		if err := k.verifyStructure(1); err != nil {
			k.invFail(err)
		}
	}
}

// VerifyInvariants checks the kernel's structural invariants and returns
// the first violation found, or nil:
//
//   - tiers: every node of the current-slot heap has a slot at or before
//     the current slot; every ring node a slot within the ring's reach, a
//     place in that slot's bucket, and a set occupancy bit; every far-heap
//     node a slot beyond the ring's reach;
//   - heap order: in both heaps, every node sorts at-or-after its 4-ary
//     heap parent under the (at, seq) total order;
//   - position/index agreement: a queued node's pos is its index in its
//     heap or bucket; free nodes have pos == -1 and no callbacks (released
//     references were dropped);
//   - sequence sanity: no queued node carries a seq the kernel has not yet
//     issued;
//   - arena accounting: every arena node is either queued, in any tier, or
//     on the free list — a mismatch means a node leaked (or was
//     double-released).
//
// It is safe to call at any point where the kernel is quiescent (between
// events); the parallel engine's invariant mode calls it once per barrier
// window per engine.
func (k *Kernel) VerifyInvariants() error { return k.verifyStructure(0) }

// verifyStructure is VerifyInvariants with an allowance for nodes that are
// mid-execution: Step releases the popped node before the handler runs, so
// from inside stepCheck exactly one node (the popped one, not yet released)
// is in flight.
func (k *Kernel) verifyStructure(inFlight int) error {
	if err := k.verifyHeap(k.q, "current-slot heap", math.MinInt64, k.cur); err != nil {
		return err
	}
	if err := k.verifyRing(); err != nil {
		return err
	}
	if err := k.verifyHeap(k.far, "far heap", k.cur+ringSlots, math.MaxInt64); err != nil {
		return err
	}
	for i, nd := range k.free {
		if nd == nil {
			return fmt.Errorf("des: nil node at free index %d", i)
		}
		if nd.pos != -1 {
			return fmt.Errorf("des: free node at index %d has pos %d (still thinks it is queued)", i, nd.pos)
		}
		if nd.eh != nil {
			return fmt.Errorf("des: free node at index %d retains a callback reference", i)
		}
	}
	if total := len(k.chunks) * chunkSize; k.Pending()+len(k.free)+inFlight != total {
		return fmt.Errorf("des: arena leak: %d queued + %d free + %d in flight != %d arena nodes",
			k.Pending(), len(k.free), inFlight, total)
	}
	return nil
}

// verifyQueued checks what every queued node satisfies in any tier; where
// names its heap or bucket and i is its index there.
func (k *Kernel) verifyQueued(where string, i int, nd *node) error {
	if nd == nil {
		return fmt.Errorf("des: nil node at %s index %d", where, i)
	}
	if int(nd.pos) != i {
		return fmt.Errorf("des: %s index %d holds node with pos %d", where, i, nd.pos)
	}
	if nd.eh == nil {
		return fmt.Errorf("des: queued node at %s index %d (t=%v seq=%d) has no callback", where, i, nd.at, nd.seq)
	}
	if nd.seq >= k.seq {
		return fmt.Errorf("des: queued node at %s index %d carries unissued seq %d (next %d)", where, i, nd.seq, k.seq)
	}
	return nil
}

// verifyHeap checks one heap tier, whose slots must lie in [lo, hi].
func (k *Kernel) verifyHeap(h nodeHeap, name string, lo, hi int64) error {
	for i, nd := range h {
		if err := k.verifyQueued(name, i, nd); err != nil {
			return err
		}
		if s := slotOf(nd.at); s < lo || s > hi {
			return fmt.Errorf("des: %s index %d holds slot %d, outside its tier (current slot %d)", name, i, s, k.cur)
		}
		if p := (i - 1) >> 2; i > 0 && nodeLess(nd, h[p]) {
			return fmt.Errorf("des: heap order violated in %s: child %d (t=%v seq=%d) sorts before parent %d (t=%v seq=%d)",
				name, i, nd.at, nd.seq, p, h[p].at, h[p].seq)
		}
	}
	return nil
}

// verifyRing checks the ring's occupied buckets: each node lies within the
// ring's reach and in its own slot's bucket, and the buckets add up to the
// ring's count. A node left in a bucket whose bit is clear is missing from
// that sum or, if the count missed it too, from the arena accounting.
func (k *Kernel) verifyRing() error {
	r := &k.ring
	if r.b == nil {
		if r.n != 0 {
			return fmt.Errorf("des: ring counts %d events but has no buckets", r.n)
		}
		return nil
	}
	n := 0
	for w, word := range r.bits {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			b := r.b[i]
			if len(b) == 0 {
				return fmt.Errorf("des: ring bucket %d is marked occupied but empty", i)
			}
			for j, nd := range b {
				if err := k.verifyQueued("ring bucket", j, nd); err != nil {
					return err
				}
				s := slotOf(nd.at)
				if s <= k.cur || s >= k.cur+ringSlots {
					return fmt.Errorf("des: ring bucket %d holds slot %d, outside the ring's slots %d…%d",
						i, s, k.cur+1, k.cur+ringSlots-1)
				}
				if int(s&ringMask) != i {
					return fmt.Errorf("des: ring bucket %d holds a node of slot %d, whose bucket is %d", i, s, s&ringMask)
				}
			}
			n += len(b)
		}
	}
	if n != r.n {
		return fmt.Errorf("des: ring buckets hold %d events, ring counts %d", n, r.n)
	}
	return nil
}
