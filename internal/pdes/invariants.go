// Runtime invariant checking for the parallel engine. Like the kernel hooks
// in package des, the checks are nil-disabled: a Config without Invariants
// pays one pointer test per barrier window, and nothing on the per-event
// path. With hooks attached, every exchange is audited for the three
// properties conservative PDES correctness rests on:
//
//   - lookahead/causality: no cross-partition event is delivered with a
//     timestamp inside the window it was sent in (the MLL guarantee);
//   - exchange parity: the (src,dst) active-pair registration agrees with
//     the parity-selected outbox buffers — no duplicate registrations, no
//     registered-but-empty buffers;
//   - monotonic drain: the gathered batch is in strictly increasing
//     (at, src, seq) order after the sort, i.e. the total order is real.
//
// Violations are recorded (with the window's end, the engine, and the
// (at, src, seq) event triple) rather than panicking, so a conformance run
// can report everything it saw; a lookahead-violating event is dropped
// instead of scheduled, because executing it would corrupt the receiving
// kernel's past.
package pdes

import (
	"fmt"
	"sync"

	"massf/internal/des"
)

// ViolationKind classifies a detected invariant violation.
type ViolationKind int

const (
	// ViolationLookahead: a remote event arrived with at < the receiving
	// window's end — it was sent inside its own send window.
	ViolationLookahead ViolationKind = iota
	// ViolationDrainOrder: the gathered exchange batch was not in strictly
	// increasing (at, src, seq) order after sorting.
	ViolationDrainOrder
	// ViolationExchangeParity: the active-pair registration table and the
	// parity-selected outbox buffers disagree.
	ViolationExchangeParity
	// ViolationKernel: a receiving engine's kernel failed its structural
	// verification (queue order, arena accounting) at a barrier, or executed
	// an event before its clock.
	ViolationKernel
)

func (k ViolationKind) String() string {
	switch k {
	case ViolationLookahead:
		return "lookahead"
	case ViolationDrainOrder:
		return "drain-order"
	case ViolationExchangeParity:
		return "exchange-parity"
	case ViolationKernel:
		return "kernel"
	default:
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
}

// Violation is one detected invariant violation, carrying enough context to
// locate the offending window in a flight-recorder trace: the window's end
// in simulated time, the receiving engine, and the event's (at, src, seq)
// identity triple.
type Violation struct {
	Kind   ViolationKind
	Engine int // receiving engine
	Src    int // sending engine; -1 when not applicable
	Seq    uint64
	At     des.Time
	// WindowEnd is the end of the barrier window the violation was found
	// in; 0 when not attributable (a kernel check before Run).
	WindowEnd des.Time
	Detail    string
}

func (v Violation) String() string {
	s := fmt.Sprintf("pdes: %s violation: engine %d", v.Kind, v.Engine)
	if v.WindowEnd > 0 {
		s += fmt.Sprintf(" in the window ending %v", v.WindowEnd)
	}
	if v.Src >= 0 {
		s += fmt.Sprintf(": event (at=%v, src=%d, seq=%d)", v.At, v.Src, v.Seq)
	}
	if v.Detail != "" {
		s += ": " + v.Detail
	}
	return s
}

// Invariants configures runtime invariant checking for one Sim. Attach via
// Config.Invariants before New; use one value per run. All exchange-phase
// checks are always on; KernelPerWindow adds a full structural verification
// of every engine's kernel at every barrier (O(pending) per engine per
// window — conformance runs and fuzzing, not production).
type Invariants struct {
	// KernelPerWindow runs des.Kernel.VerifyInvariants on each engine's
	// kernel after every exchange phase.
	KernelPerWindow bool

	mu         sync.Mutex
	violations []Violation
}

func (inv *Invariants) record(v Violation) {
	inv.mu.Lock()
	inv.violations = append(inv.violations, v)
	inv.mu.Unlock()
}

// Violations returns a copy of every violation recorded so far. Safe to
// call concurrently with a running Sim and after Run returns.
func (inv *Invariants) Violations() []Violation {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	out := make([]Violation, len(inv.violations))
	copy(out, inv.violations)
	return out
}

// invCheckGather audits the active-pair registration for receiving engine e
// before the gather walks it: every registered source must appear once and
// hold a non-empty parity buffer for e. wEnd is the window's end.
func (s *Sim) invCheckGather(inv *Invariants, e *Engine, wEnd des.Time, srcs []int32) {
	for i, si := range srcs {
		for j := 0; j < i; j++ {
			if srcs[j] == si {
				inv.record(Violation{
					Kind: ViolationExchangeParity, Engine: e.id, Src: int(si), At: -1, WindowEnd: wEnd,
					Detail: "source registered twice in the active table",
				})
			}
		}
		if len(s.engines[si].outbox[e.p][e.id]) == 0 {
			inv.record(Violation{
				Kind: ViolationExchangeParity, Engine: e.id, Src: int(si), At: -1, WindowEnd: wEnd,
				Detail: fmt.Sprintf("registered source has empty parity-%d outbox", e.p),
			})
		}
	}
}

// invCheckIncoming audits the sorted exchange batch for engine e: strictly
// increasing (at, src, seq), and no event timestamped before the window end
// (the lookahead guarantee). Lookahead-violating events are recorded and
// removed — scheduling them would corrupt the kernel's past — and the
// filtered batch is returned.
func (s *Sim) invCheckIncoming(inv *Invariants, e *Engine, wEnd des.Time, incoming []remoteEvent) []remoteEvent {
	out := incoming[:0]
	var prev remoteEvent
	havePrev := false
	for i := range incoming {
		re := incoming[i]
		if havePrev && remoteCmp(prev, re) >= 0 {
			inv.record(Violation{
				Kind: ViolationDrainOrder, Engine: e.id,
				Src: int(re.src), Seq: re.seq, At: re.at, WindowEnd: wEnd,
				Detail: fmt.Sprintf("not after predecessor (at=%v, src=%d, seq=%d)", prev.at, prev.src, prev.seq),
			})
		}
		prev, havePrev = re, true
		if re.at < wEnd {
			inv.record(Violation{
				Kind: ViolationLookahead, Engine: e.id,
				Src: int(re.src), Seq: re.seq, At: re.at, WindowEnd: wEnd,
			})
			continue
		}
		out = append(out, re)
	}
	return out
}

// invCheckKernel runs the kernel structural verification for engine e at a
// barrier (KernelPerWindow mode).
func (s *Sim) invCheckKernel(inv *Invariants, e *Engine, wEnd des.Time) {
	if err := e.k.VerifyInvariants(); err != nil {
		inv.record(Violation{
			Kind: ViolationKernel, Engine: e.id, Src: -1, At: -1,
			WindowEnd: wEnd, Detail: err.Error(),
		})
	}
}

// InjectLookaheadViolation ships an event to engine dst bypassing the
// send-side window check that ScheduleRemoteEvent enforces. It exists solely so
// tests and the conformance harness can prove the receiver-side detection
// works; calling it in a real model is exactly the bug the invariant hooks
// are for. Like ScheduleRemoteEvent, it must run on e's own goroutine.
func (e *Engine) InjectLookaheadViolation(dst int, at des.Time, h des.Handler) {
	e.enqueueRemote(dst, at, h)
}
