// The distributed transport seam. A Transport lets a Sim run as one worker
// of a multi-process simulation: Run's one window loop executes only the
// hosted engine range, and once per barrier window [start, end) the local
// leader engine hands the transport the window's cross-worker events — in
// serialized wire form — plus this worker's share of the control data
// (max busy time, local minimum next event time, stop request). The
// transport trades them with every other worker and returns the folded
// result (events destined here, the global next event time, the global
// stop flag) in place of the local reduction. The transport only carries
// and folds: every worker's loop then takes the next window from the same
// folded values with the same rule, so every worker takes the same one.
//
// Distributed runs assume deterministic setup: every worker makes the same
// setup calls over all N engines in the same order, and materializes only
// what its hosted range touches (netsim keeps a slice of the network).
// Setup-time identities are therefore identical on every worker, which is
// what lets serialized events reference model objects (nodes, flows,
// callbacks) by small integer identity instead of shipping object graphs.
//
// Determinism: the wire path assigns the same (src, seq) labels a send
// would receive in-process (see Engine.enqueueRemote), each event carries its
// (at, src, seq) explicitly, and the receiving engine merges wire events
// with locally-exchanged ones under the same strict (at, src, seq) total
// order the in-process gather sorts by. A distributed run is therefore
// event-for-event identical to the in-process run of the same partition.
package pdes

import (
	"errors"

	"massf/internal/des"
	"massf/internal/wire"
)

// wireSend pairs an outgoing cross-worker event with its destination
// engine; it sits in the per-engine wire outbox until the barrier, where
// the owning engine encodes it (in parallel with its peers).
type wireSend struct {
	re  remoteEvent
	dst int32
}

// WindowDone is one worker's barrier arrival: the window's control data
// plus every event leaving the worker.
type WindowDone struct {
	// Start and End delimit the window just executed, [Start, End) in
	// simulated time.
	Start, End des.Time
	// MaxBusy is the max over hosted engines of the window's modeled busy
	// time (events×EventCost + remote sends×remoteCost), the worker's
	// contribution to the global modeled-time reduction.
	MaxBusy int64
	// LocalNext is the minimum next-event time over the hosted engines
	// (kernels plus locally-gathered incoming) and over Events, taken
	// before cross-worker events arrive. The minimum over every worker's
	// LocalNext is therefore the exact global next-event time an
	// in-process run would reduce.
	LocalNext des.Time
	// Stop requests cooperative global cancellation (Sim.Stop was called
	// on this worker).
	Stop bool
	// Events is every event leaving this worker this window, each dated at
	// or after End.
	Events []wire.Event
}

// WindowGo is the global barrier release, folded from every worker's
// WindowDone.
type WindowGo struct {
	// Next is the global next-event time: the minimum LocalNext over
	// every worker.
	Next des.Time
	// Stop reports the global stop decision (any worker requested it).
	Stop bool
	// Events is every event destined to this worker's hosted engines.
	Events []wire.Event
}

// A WindowGo comes from outside the process, so a reply the window loop
// cannot act on ends the run with one of these in Stats.Err instead of
// corrupting (or panicking) the worker.
var (
	// ErrMisroutedEvent: the reply carries an event for an engine this
	// worker does not host.
	ErrMisroutedEvent = errors.New("pdes: event delivered to a non-hosted engine")
	// ErrEventInPast: the reply carries an event dated before the end of
	// the window just executed, which no engine can schedule any more.
	ErrEventInPast = errors.New("pdes: remote event dated before the window's end")
	// ErrUndecodableEvent: the codec rejects one of the reply's events (it
	// wraps the codec's error).
	ErrUndecodableEvent = errors.New("pdes: undecodable remote event")
)

// Transport synchronizes one worker with the rest of a distributed run.
// Exchange is called exactly once per executed window, by a single
// goroutine, after every hosted engine has arrived at the local barrier; it
// must block until all workers have arrived globally and return what they
// sent folded: the minimum Next, the OR of Stop and the events for this
// worker's engines. Run takes the next window from the reply with the same
// rule it applies to its engines' next-event times with Transport nil; the
// TCP implementation is dist.WorkerTransport, which trades WindowDone with
// every peer directly.
type Transport interface {
	Exchange(done WindowDone) (WindowGo, error)
}

// Codec translates model-layer event handlers to and from wire form. A
// model registers one Kind per serializable handler type; both sides of a
// distributed run must share the registry (guaranteed by deterministic setup).
// Encode runs concurrently on multiple engine goroutines; Decode runs on the
// leader alone, while every other hosted engine waits at the barrier.
type Codec interface {
	// Encode serializes a remote event's handler. An error means the
	// handler is not serializable — a model bug in distributed mode. The
	// engine keeps no reference to eh after Encode, so the model may
	// reuse it.
	Encode(eh des.EventHandler) (kind uint16, payload []byte, err error)
	// Decode reconstructs the handler on the destination engine dst.
	Decode(dst int, kind uint16, payload []byte) (des.EventHandler, error)
}
