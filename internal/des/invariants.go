// Runtime invariant checking for the kernel. The hooks are nil-disabled:
// a Kernel with no KernelInvariants attached pays exactly one predictable
// pointer test per executed event on the hot path, and the steady-state
// allocation test (TestKernelSteadyStateZeroAllocs) runs with the hooks
// off. Tests, fuzz targets and the simcheck conformance oracle attach
// hooks to catch heap-order corruption, arena leaks and time-travel bugs
// the moment they happen instead of as downstream stat divergence.
package des

import "fmt"

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
// execute. Called from Step after popMin and before the clock advances, so
// nd.at < k.now means the heap yielded an event from the kernel's past.
// Kept out of Step's body so the common nil-hook path stays small enough
// to inline.
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
//   - heap order: every node sorts at-or-after its 4-ary heap parent under
//     the (at, seq) total order;
//   - position/index agreement: q[i].pos == i, free nodes have pos == -1
//     and no callbacks (released references were dropped);
//   - sequence sanity: no queued node carries a seq the kernel has not yet
//     issued;
//   - arena accounting: every arena node is either queued or on the free
//     list — a mismatch means a node leaked (or was double-released).
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
	for i, nd := range k.q {
		if nd == nil {
			return fmt.Errorf("des: nil node at heap index %d", i)
		}
		if int(nd.pos) != i {
			return fmt.Errorf("des: heap index %d holds node with pos %d", i, nd.pos)
		}
		if nd.eh == nil {
			return fmt.Errorf("des: queued node at index %d (t=%v seq=%d) has no callback", i, nd.at, nd.seq)
		}
		if nd.seq >= k.seq {
			return fmt.Errorf("des: queued node at index %d carries unissued seq %d (next %d)", i, nd.seq, k.seq)
		}
		if i > 0 {
			p := (i - 1) >> 2
			if nodeLess(nd, k.q[p]) {
				return fmt.Errorf("des: heap order violated: child %d (t=%v seq=%d) sorts before parent %d (t=%v seq=%d)",
					i, nd.at, nd.seq, p, k.q[p].at, k.q[p].seq)
			}
		}
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
	if total := len(k.chunks) * chunkSize; len(k.q)+len(k.free)+inFlight != total {
		return fmt.Errorf("des: arena leak: %d queued + %d free + %d in flight != %d arena nodes",
			len(k.q), len(k.free), inFlight, total)
	}
	return nil
}
