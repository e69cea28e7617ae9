// The distributed transport seam. A Transport lets a Sim run as one worker
// of a multi-process simulation: Run's one window loop executes only the
// hosted engine range, and once per barrier window the local leader engine
// trades the window's cross-worker events — in serialized wire form — plus
// the control data the global barrier decision needs (max busy time, local
// minimum next event time, stop request) for the coordinator's reply (events
// destined here, the next window index after fast-forward, the global stop
// flag), which replaces the decision the loop would have taken locally.
//
// Distributed runs assume the replicated-setup (SPMD) model: every worker
// runs the same deterministic setup over all N engines, and only the
// hosted range runs live (the model may skip materializing what only
// non-hosted engines touch; netsim does). Setup-time identities are
// therefore identical on every worker, which is what lets serialized
// events reference model objects (nodes, flows, callbacks) by small
// integer identity instead of shipping object graphs.
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
	// Window is the index of the window just executed.
	Window int
	// MaxBusy is the max over hosted engines of the window's modeled busy
	// time (events×EventCost + remote sends×remoteCost), the worker's
	// contribution to the global modeled-time reduction.
	MaxBusy int64
	// LocalNext is the minimum next-event time over hosted engines —
	// kernels plus locally-gathered incoming, BEFORE cross-worker events
	// arrive. The coordinator folds in the timestamps of the events it
	// routes, so min(all LocalNext, all wire event times) is the exact
	// global next-event time the in-process fast-forward would compute.
	LocalNext des.Time
	// Stop requests cooperative global cancellation (Sim.Stop was called
	// on this worker).
	Stop bool
	// Events is every event leaving this worker this window.
	Events []wire.Event
}

// WindowGo is the coordinator's barrier release.
type WindowGo struct {
	// NextWindow is the window to execute next — at least Window+1, larger
	// when the coordinator fast-forwards over globally idle windows.
	NextWindow int
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
	ErrMisroutedEvent = errors.New("pdes: coordinator routed an event to a non-hosted engine")
	// ErrWindowNotAdvanced: the reply's NextWindow is not beyond the window
	// just executed (and it does not stop the run).
	ErrWindowNotAdvanced = errors.New("pdes: coordinator did not advance the window")
	// ErrUndecodableEvent: the codec rejects one of the reply's events (it
	// wraps the codec's error).
	ErrUndecodableEvent = errors.New("pdes: undecodable remote event")
)

// Transport synchronizes one worker with the rest of a distributed run.
// Exchange is called exactly once per executed window, by a single
// goroutine, after every hosted engine has arrived at the local barrier; it
// must block until all workers have arrived globally and return the
// coordinator's decision. With Transport nil, Run takes the same decision
// (NextWindow over the engines' published next-event times) locally; the
// TCP implementation is dist.WorkerTransport.
type Transport interface {
	Exchange(done WindowDone) (WindowGo, error)
}

// Codec translates model-layer event handlers to and from wire form. A
// model registers one Kind per serializable handler type; both sides of a
// distributed run must share the registry (guaranteed by replicated setup).
// Encode runs concurrently on multiple engine goroutines; Decode runs on the
// leader alone, while every other hosted engine waits at the barrier.
type Codec interface {
	// Encode serializes a remote event's handler. An error means the
	// handler is not serializable — a model bug in distributed mode.
	Encode(eh des.EventHandler) (kind uint16, payload []byte, err error)
	// Decode reconstructs the handler on the destination engine dst.
	Decode(dst int, kind uint16, payload []byte) (des.EventHandler, error)
}
