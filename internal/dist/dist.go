// Package dist runs a distributed simulation over TCP: worker processes
// each run one hosted engine range of the scenario (see pdes.Transport for
// the window protocol and the deterministic-setup model) and trade every
// barrier window directly with each other, and a coordinator process hands
// out the jobs, watches the workers' liveness and collects their results.
//
// Every worker keeps one connection to the coordinator and one to every
// other worker, all framed by package wire:
//
//	     coord            Hello, Job, Heartbeat, Result, Abort
//	   /   |   \
//	w0 ——— w1 ——— w2      WindowDone, one per peer per window
//	  \___________/
//
// A run is
//
//	worker → coord   Hello{name, peer address}
//	coord  → worker  Job{kind, engine range, opaque spec, worker index,
//	                     peer table}
//	worker i → worker j > i: dial, Hello{i}
//	repeat per window [start, end), worker ↔ every peer:
//	    WindowDone{start, end, maxBusy, next, stop, events for the peer's engines}
//	    (each worker folds stop, max busy and the minimum next from all of them)
//	worker → coord   Heartbeat{windows sent}, every 250 ms
//	worker → coord   Result{windows, modeled busy, stopped, opaque payload}
//
// No per-window frame reaches the coordinator, and no process here decides
// a window: every worker folds the same frames, and its pdes loop takes
// the next window from the folded values, so all of them take the same
// one; the coordinator checks at the end that their summaries agree.
//
// Failure model: the coordinator reads each worker connection under a
// rolling 2 s deadline; a worker that dies or is cut off — process killed,
// network partition — stops heartbeating and the read deadline fires,
// failing the run with a WorkerError naming the worker. A worker whose
// peer link fails — EOF, a frame the wire codec rejects (bad CRC, bad
// magic, truncation), another window, an event for an engine it does not
// host or dated before the window's end, or no frame within 60 s — sends
// the coordinator an Abort naming that peer, and the coordinator blames
// it. A stalled worker — heartbeats flowing, no window progress — is
// caught by the windows-sent count its heartbeats carry. On any failure
// the coordinator sends Abort to the surviving workers, which close their
// peer links so none stays blocked in Exchange. The deadlines are
// constants, not options, so no worker heartbeats past its coordinator's.
//
// The coordinator is deliberately model-agnostic: job specs and result
// payloads are opaque bytes, and the job kind string selects a registered
// runner on the worker (the cmd layer registers those, avoiding model
// imports here).
package dist

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"massf/internal/des"
	"massf/internal/pdes"
	"massf/internal/wire"
)

// Options is the transport's setting. Its timing is fixed by the
// constants below and the zero value is what every caller passes; the
// type stays for Serve's and RunWorker's signatures. Package tests shorten
// the three deadlines they would otherwise wait out.
type Options struct {
	heartbeatTimeout, exchangeTimeout, joinTimeout time.Duration
}

// The transport's timing, the same at both ends of every connection.
const (
	heartbeatInterval = 250 * time.Millisecond // how often a worker pings the coordinator
	dialTimeout       = 10 * time.Second       // a worker's attempts to reach the coordinator, backoff included
	// heartbeatTimeout is the coordinator's rolling read deadline on each
	// worker: a worker silent this long, no frame and no heartbeat, is dead.
	heartbeatTimeout = 2 * time.Second
	// exchangeTimeout bounds a worker's wait for each peer's WindowDone, so
	// it covers the slowest worker's window, and the coordinator's wait for
	// any worker to send another window.
	exchangeTimeout = 60 * time.Second
	// joinTimeout bounds the coordinator's wait for every worker's
	// handshake, and a worker's wait for its job and its peer links.
	joinTimeout = 30 * time.Second
)

func (o Options) withDefaults() Options {
	o.heartbeatTimeout = cmp.Or(o.heartbeatTimeout, heartbeatTimeout)
	o.exchangeTimeout = cmp.Or(o.exchangeTimeout, exchangeTimeout)
	o.joinTimeout = cmp.Or(o.joinTimeout, joinTimeout)
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

func encodeHello(name, addr string) []byte {
	var b wire.Buffer
	b.String(name)
	b.String(addr)
	return b.B
}

func decodeHello(p []byte) (name, addr string, err error) {
	r := wire.NewReader(p)
	name, addr = r.String(), r.String()
	return name, addr, r.Err()
}

// assignment is what the coordinator's Job frame tells a worker: its job,
// its index, and the peer table, with the engine → worker table it gives.
type assignment struct {
	Job
	Index int
	Peers []peerInfo
	owner []int
}

// peerInfo is one worker's row of the peer table: where it listens for its
// peers and which engines it hosts.
type peerInfo struct {
	Addr          string
	First, Hosted int
}

func encodeAssignment(a assignment) []byte {
	var b wire.Buffer
	b.String(a.Kind)
	b.U32(uint32(a.First))
	b.U32(uint32(a.Hosted))
	b.Bytes(a.Spec)
	b.U32(uint32(a.Index))
	b.U32(uint32(len(a.Peers)))
	for _, p := range a.Peers {
		b.String(p.Addr)
		b.U32(uint32(p.First))
		b.U32(uint32(p.Hosted))
	}
	return b.B
}

func decodeAssignment(p []byte) (assignment, error) {
	r := wire.NewReader(p)
	a := assignment{Job: Job{Kind: r.String(), First: int(r.U32()), Hosted: int(r.U32())}}
	a.Spec = append([]byte(nil), r.BytesView()...)
	a.Index = int(r.U32())
	n := int(r.U32())
	if n > r.Len() { // a corrupt count must not size the allocation
		return a, wire.ErrShort
	}
	a.Peers = make([]peerInfo, n)
	rows := make([]Job, n)
	for i := range a.Peers {
		a.Peers[i] = peerInfo{Addr: r.String(), First: int(r.U32()), Hosted: int(r.U32())}
		rows[i] = Job{First: a.Peers[i].First, Hosted: a.Peers[i].Hosted}
	}
	switch {
	case r.Err() != nil:
		return a, r.Err()
	case a.Index >= n:
		return a, fmt.Errorf("dist: worker index %d of %d", a.Index, n)
	case rows[a.Index].First != a.First || rows[a.Index].Hosted != a.Hosted:
		return a, fmt.Errorf("dist: own peer row [%d,+%d) is not the job's range", rows[a.Index].First, rows[a.Index].Hosted)
	}
	var err error
	a.owner, err = checkJobs(rows) // the coordinator's own rule
	return a, err
}

func encodeWindowDone(buf []byte, d pdes.WindowDone) []byte {
	b := wire.Buffer{B: buf}
	b.I64(int64(d.Start))
	b.I64(int64(d.End))
	b.I64(d.MaxBusy)
	b.I64(int64(d.LocalNext))
	b.U8(flag(d.Stop))
	return wire.AppendEvents(b.B, d.Events)
}

// decodeWindowDone accepts only the bytes encodeWindowDone writes: a stop
// flag of 0 or 1 and nothing after the events.
func decodeWindowDone(p []byte) (pdes.WindowDone, error) {
	r := wire.NewReader(p)
	d := pdes.WindowDone{
		Start: des.Time(r.I64()), End: des.Time(r.I64()),
		MaxBusy: r.I64(), LocalNext: des.Time(r.I64()),
	}
	stop := r.U8()
	d.Stop = stop == 1
	evs, err := wire.ReadEvents(r)
	d.Events = evs
	if err == nil && (stop > 1 || r.Len() > 0) {
		err = fmt.Errorf("dist: malformed window frame: stop byte %d, %d trailing bytes", stop, r.Len())
	}
	return d, err
}

// flag is a bool's wire byte.
func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// summary is what a worker's transport folded over the whole run; every
// worker folds the same frames, so every worker's summary is the same.
type summary struct {
	windows int
	busyNS  int64
	stopped bool
}

// encodeResult puts the summary ahead of the runner's opaque payload.
func encodeResult(s summary, payload []byte) []byte {
	var b wire.Buffer
	b.U32(uint32(s.windows))
	b.I64(s.busyNS)
	b.U8(flag(s.stopped))
	return append(b.B, payload...)
}

func decodeResult(p []byte) (summary, []byte, error) {
	r := wire.NewReader(p)
	s := summary{windows: int(r.U32()), busyNS: r.I64(), stopped: r.U8() != 0}
	return s, p[len(p)-r.Len():], r.Err()
}

// wireErrs are the codec sentinels an Abort can name by code (index+1), so
// the coordinator's WorkerError keeps the one the reporting worker saw.
var wireErrs = []error{wire.ErrMagic, wire.ErrVersion, wire.ErrCRC, wire.ErrTooLarge, wire.ErrTruncated, wire.ErrShort}

// encodeAbort names the worker the failure is blamed on and the wire
// sentinel behind it, if any, with the reason.
func encodeAbort(culprit int, cause error) []byte {
	var b wire.Buffer
	b.U32(uint32(culprit))
	code := 0
	for i, s := range wireErrs {
		if errors.Is(cause, s) {
			code = i + 1
			break
		}
	}
	b.U8(byte(code))
	b.String(cause.Error())
	return b.B
}

// decodeAbort returns the culprit's index, -1 for a malformed Abort, and
// the reported cause, with the wire sentinel it names in its chain.
func decodeAbort(p []byte) (int, error) {
	r := wire.NewReader(p)
	culprit, code, reason := int(r.U32()), int(r.U8()), r.String()
	if r.Err() != nil || code > len(wireErrs) {
		return -1, errors.New("malformed abort")
	}
	var sentinel error
	if code > 0 {
		sentinel = wireErrs[code-1]
	}
	return culprit, &reportedError{reason, sentinel}
}

// reportedError is a failure another process saw: its text, and the wire
// sentinel it named.
type reportedError struct {
	reason   string
	sentinel error
}

func (e *reportedError) Error() string { return e.reason }
func (e *reportedError) Unwrap() error { return e.sentinel }

// encodeCount is the payload of a worker's Heartbeat (windows sent) and of
// a peer link's Hello (the dialer's index).
func encodeCount(n int) []byte {
	var b wire.Buffer
	b.U32(uint32(n))
	return b.B
}

func decodeCount(p []byte) (int, error) {
	r := wire.NewReader(p)
	n := int(r.U32())
	return n, r.Err()
}
