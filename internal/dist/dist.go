// Package dist runs a distributed simulation over TCP: a coordinator
// process drives the barrier-window protocol and routes cross-worker
// events, and worker processes each run one hosted engine range of the
// scenario (see pdes.Transport for the window protocol and the SPMD
// model).
//
// The protocol is a star: every worker keeps exactly one connection to the
// coordinator, framed by package wire. A run is
//
//	worker → Hello{name}
//	coord  → Job{kind, engine range, opaque spec}
//	repeat per window:
//	    worker → WindowDone{window, maxBusy, localNext, stop, events}
//	            (Heartbeat frames interleave while the worker computes)
//	    coord  → WindowGo{nextWindow, stop, events routed to this worker}
//	worker → Result{opaque payload}
//
// Failure model: the coordinator reads each worker connection under a
// rolling deadline of HeartbeatTimeout; a worker that dies or stalls —
// process killed, network partition, live-locked engine — stops
// heartbeating and the read deadline fires, failing the run with a
// WorkerError naming the worker. Frame corruption (bad CRC, bad magic,
// truncation) is detected by the wire codec and attributed the same way.
// On any failure the coordinator sends Abort to the surviving workers so
// they exit promptly instead of blocking in Exchange.
//
// The coordinator is deliberately model-agnostic: job specs and result
// payloads are opaque bytes, and the job kind string selects a registered
// runner on the worker (the cmd layer registers those, avoiding model
// imports here).
package dist

import (
	"fmt"
	"time"

	"massf/internal/des"
	"massf/internal/pdes"
	"massf/internal/wire"
)

// Options tunes transport robustness; zero values select the defaults.
type Options struct {
	// HeartbeatInterval is how often a worker pings while computing.
	// Default 250ms.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the coordinator's rolling per-connection read
	// deadline: a worker silent this long — no protocol frame and no
	// heartbeat — is declared dead. It does not bound a worker's wait for
	// the coordinator's reply, which also has to cover the slowest peer's
	// window; that is ExchangeTimeout. Default 2s; must exceed
	// HeartbeatInterval (a smaller value is raised to 4× the interval).
	HeartbeatTimeout time.Duration
	// ExchangeTimeout bounds a worker's wait for the coordinator's
	// WindowGo after sending WindowDone — the global barrier wait, so it
	// must cover the slowest worker's window. Default 60s.
	ExchangeTimeout time.Duration
	// DialTimeout bounds a worker's total connection attempt, across
	// backoff retries (the coordinator may not be listening yet when the
	// worker starts). Default 10s.
	DialTimeout time.Duration
	// JoinTimeout bounds the coordinator's wait for all workers to connect
	// and complete the handshake. Default 30s.
	JoinTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 250 * time.Millisecond
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 2 * time.Second
	}
	if o.HeartbeatTimeout <= o.HeartbeatInterval {
		o.HeartbeatTimeout = 4 * o.HeartbeatInterval
	}
	if o.ExchangeTimeout <= 0 {
		o.ExchangeTimeout = 60 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.JoinTimeout <= 0 {
		o.JoinTimeout = 30 * time.Second
	}
	return o
}

// Job assigns one worker its share of a run.
type Job struct {
	// Kind selects the registered runner on the worker.
	Kind string
	// First and Hosted delimit the worker's engine range
	// [First, First+Hosted).
	First, Hosted int
	// Spec is the model-level job description, opaque to the transport.
	Spec []byte
}

// WorkerError attributes a run failure to one worker.
type WorkerError struct {
	// Index is the worker's slot in the coordinator's job list.
	Index int
	// Name is the worker's self-reported Hello name.
	Name string
	// First and Hosted are the engine range the worker was assigned.
	First, Hosted int
	// Err is the underlying cause (wire codec error, read timeout, abort
	// reason, ...).
	Err error
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("dist: worker %d (%q, engines %d-%d): %v",
		e.Index, e.Name, e.First, e.First+e.Hosted-1, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// --- control-frame payload encodings ---

func encodeHello(name string) []byte {
	var b wire.Buffer
	b.String(name)
	return b.B
}

func decodeHello(p []byte) (string, error) {
	r := wire.NewReader(p)
	name := r.String()
	return name, r.Err()
}

func encodeJob(j Job) []byte {
	var b wire.Buffer
	b.String(j.Kind)
	b.U32(uint32(j.First))
	b.U32(uint32(j.Hosted))
	b.Bytes(j.Spec)
	return b.B
}

func decodeJob(p []byte) (Job, error) {
	r := wire.NewReader(p)
	j := Job{Kind: r.String(), First: int(r.U32()), Hosted: int(r.U32())}
	j.Spec = append([]byte(nil), r.BytesView()...)
	return j, r.Err()
}

func encodeWindowDone(buf []byte, d pdes.WindowDone) []byte {
	b := wire.Buffer{B: buf}
	b.U32(uint32(d.Window))
	b.I64(d.MaxBusy)
	b.I64(int64(d.LocalNext))
	if d.Stop {
		b.U8(1)
	} else {
		b.U8(0)
	}
	return wire.AppendEvents(b.B, d.Events)
}

func decodeWindowDone(p []byte) (pdes.WindowDone, error) {
	r := wire.NewReader(p)
	d := pdes.WindowDone{
		Window:    int(r.U32()),
		MaxBusy:   r.I64(),
		LocalNext: des.Time(r.I64()),
		Stop:      r.U8() != 0,
	}
	evs, err := wire.ReadEvents(r)
	d.Events = evs
	return d, err
}

func encodeWindowGo(buf []byte, g pdes.WindowGo) []byte {
	b := wire.Buffer{B: buf}
	b.U32(uint32(g.NextWindow))
	if g.Stop {
		b.U8(1)
	} else {
		b.U8(0)
	}
	return wire.AppendEvents(b.B, g.Events)
}

func decodeWindowGo(p []byte) (pdes.WindowGo, error) {
	r := wire.NewReader(p)
	g := pdes.WindowGo{NextWindow: int(r.U32()), Stop: r.U8() != 0}
	evs, err := wire.ReadEvents(r)
	g.Events = evs
	return g, err
}

func encodeAbort(reason string) []byte {
	var b wire.Buffer
	b.String(reason)
	return b.B
}

func decodeAbort(p []byte) string {
	r := wire.NewReader(p)
	s := r.String()
	if r.Err() != nil {
		return "(malformed abort reason)"
	}
	return s
}
