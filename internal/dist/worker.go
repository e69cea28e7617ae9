package dist

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"massf/internal/des"
	"massf/internal/pdes"
	"massf/internal/wire"
)

// Runner executes one worker's share of a distributed job: build that
// share of the scenario from job.Spec, run the hosted engine range with t
// as pdes.Config.Transport, and return the worker's opaque result payload.
// The job kind string selects the runner (registered by the cmd layer).
type Runner func(job Job, t pdes.Transport) ([]byte, error)

// WorkerTransport is the TCP implementation of pdes.Transport: one
// wire-framed link to every other worker, over which each window's control
// data and events travel directly, plus the connection to the coordinator,
// on which a keepalive goroutine heartbeats the windows sent so far.
type WorkerTransport struct {
	conn  net.Conn // to the coordinator
	opt   Options
	a     assignment // with the engine → worker table Exchange routes by
	peers []*link    // by worker index; nil at this worker's own
	quit  chan struct{}

	wmu  sync.Mutex    // serializes coordinator writes with the heartbeat goroutine
	sent atomic.Uint32 // windows sent to every peer

	// Exchange scratch, reused across windows.
	outs  [][]wire.Event // by worker index
	in    []wire.Event
	enc   []byte          // a peer's MsgWindowDone payload
	frame []byte          // that payload framed
	sends chan sendResult // big frames' writes

	sum     summary // the run so far, as every worker folds it
	culprit int     // the worker the first failure is blamed on; -1 for none
	cause   error   // that failure

	mu      sync.Mutex // guards what watch closes
	ln      net.Listener
	aborted error // set by watch: the run is over
}

// link is one peer connection. Exchange reads it directly, buffered so a
// frame's header and body take one read.
type link struct {
	conn net.Conn
	r    *bufio.Reader
}

// bigFrame is the size above which Exchange writes a frame on its own
// goroutine. Every worker writes its frames before it reads its peers', so
// a frame written in line must fit in the socket buffers until the peer
// reads it, or two workers writing each other such frames would both
// block. A link holds at most two unread frames (a worker writes window
// w+1 only after reading its peer's window w), and 2×16 KiB is far below
// the buffers loopback or any LAN gives a TCP connection by default.
const bigFrame = 16 << 10

// sendResult is how a big frame's write ends.
type sendResult struct {
	peer int
	err  error
}

// Exchange implements pdes.Transport: it sends every peer this worker's
// control data with the events for that peer's engines, reads every peer's
// in turn, and folds them as every worker does: stop if any worker stops,
// the max busy time and the minimum next-event time. Peers' events come
// back in ascending worker index.
func (t *WorkerTransport) Exchange(d pdes.WindowDone) (pdes.WindowGo, error) {
	for i := range t.outs {
		t.outs[i] = t.outs[i][:0]
	}
	for _, ev := range d.Events {
		o := -1
		if ev.Dst >= 0 && int(ev.Dst) < len(t.a.owner) {
			o = t.a.owner[ev.Dst]
		}
		if o < 0 || o == t.a.Index {
			return pdes.WindowGo{}, t.fail(t.a.Index, fmt.Errorf("dist: window at %v: event for engine %d, hosted by no peer", d.Start, ev.Dst))
		}
		t.outs[o] = append(t.outs[o], ev)
	}
	async := 0
	for j, p := range t.peers {
		if p == nil {
			continue
		}
		t.enc = encodeWindowDone(t.enc[:0], pdes.WindowDone{
			Start: d.Start, End: d.End, MaxBusy: d.MaxBusy, LocalNext: d.LocalNext, Stop: d.Stop, Events: t.outs[j],
		})
		t.frame = wire.AppendFrame(t.frame[:0], wire.MsgWindowDone, t.enc)
		if len(t.frame) > bigFrame {
			frame := slices.Clone(t.frame)
			async++
			go func() {
				_, err := p.conn.Write(frame)
				t.sends <- sendResult{j, err}
			}()
		} else if _, err := p.conn.Write(t.frame); err != nil {
			return pdes.WindowGo{}, t.fail(j, fmt.Errorf("dist: send window at %v to worker %d: %w", d.Start, j, err))
		}
	}
	t.sent.Add(1)
	stop, busy, next := d.Stop, d.MaxBusy, d.LocalNext
	t.in = t.in[:0]
	for j, p := range t.peers {
		if p == nil {
			continue
		}
		got, err := t.recv(p, d)
		if err != nil {
			return pdes.WindowGo{}, t.fail(j, fmt.Errorf("dist: window at %v from worker %d: %w", d.Start, j, err))
		}
		stop = stop || got.Stop
		busy = max(busy, got.MaxBusy)
		next = min(next, got.LocalNext)
		t.in = append(t.in, got.Events...)
	}
	for ; async > 0; async-- {
		if r := <-t.sends; r.err != nil {
			return pdes.WindowGo{}, t.fail(r.peer, fmt.Errorf("dist: send window at %v to worker %d: %w", d.Start, r.peer, r.err))
		}
	}
	t.sum.windows++
	t.sum.busyNS += busy
	t.sum.stopped = stop
	return pdes.WindowGo{Next: next, Stop: stop, Events: t.in}, nil
}

// recv reads peer p's frame for this worker's window d under the exchange
// timeout and checks it: the same window [Start, End), and events only for
// engines this worker hosts, none dated before End.
func (t *WorkerTransport) recv(p *link, d pdes.WindowDone) (pdes.WindowDone, error) {
	_ = p.conn.SetReadDeadline(time.Now().Add(t.opt.exchangeTimeout))
	typ, payload, err := wire.ReadFrame(p.r, wire.DefaultMaxFrame)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return pdes.WindowDone{}, fmt.Errorf("stalled: no window frame within %v", t.opt.exchangeTimeout)
	}
	if err != nil {
		return pdes.WindowDone{}, err
	}
	if typ != wire.MsgWindowDone {
		return pdes.WindowDone{}, fmt.Errorf("expected WindowDone, got frame type %d", typ)
	}
	got, err := decodeWindowDone(payload)
	if err != nil {
		return got, err
	}
	if got.Start != d.Start || got.End != d.End {
		return got, fmt.Errorf("arrived at window [%v, %v), barrier is at [%v, %v)", got.Start, got.End, d.Start, d.End)
	}
	for _, ev := range got.Events {
		if int(ev.Dst) < t.a.First || int(ev.Dst) >= t.a.First+t.a.Hosted {
			return got, fmt.Errorf("event for engine %d, hosted here [%d,%d)", ev.Dst, t.a.First, t.a.First+t.a.Hosted)
		}
		if des.Time(ev.At) < d.End {
			return got, fmt.Errorf("event at %v, before the window's end %v", des.Time(ev.At), d.End)
		}
	}
	return got, nil
}

// fail records the first failure and the worker it is blamed on, and
// returns it, or the coordinator's abort if that is what ended the run.
func (t *WorkerTransport) fail(culprit int, err error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.aborted != nil {
		return t.aborted
	}
	if t.culprit < 0 {
		t.culprit, t.cause = culprit, err
	}
	return err
}

// heartbeat keeps the coordinator's liveness deadline fed and tells it how
// many windows this worker has sent, which is how it sees a stall.
func (t *WorkerTransport) heartbeat() {
	tick := time.NewTicker(heartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-t.quit:
			return
		case <-tick.C:
			t.wmu.Lock()
			err := wire.WriteFrame(t.conn, wire.MsgHeartbeat, encodeCount(int(t.sent.Load())))
			t.wmu.Unlock()
			if err != nil {
				return // the coordinator is gone; watch has seen it too
			}
		}
	}
}

// watch reads the coordinator connection for the whole run: after the job
// only an Abort comes on it. On that, or on the coordinator hanging up, it
// closes the peer links, so an Exchange blocked on a peer returns at once.
func (t *WorkerTransport) watch() {
	var aborted error = errors.New("dist: coordinator hung up")
	for {
		typ, payload, err := wire.ReadFrame(t.conn, wire.DefaultMaxFrame)
		if err != nil {
			break
		}
		if typ == wire.MsgAbort {
			_, cause := decodeAbort(payload)
			aborted = fmt.Errorf("dist: run aborted: %w", cause)
			break
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.aborted = aborted
	t.ln.Close()
	for _, p := range t.peers {
		if p != nil {
			p.conn.Close()
		}
	}
}

// connect links this worker to every peer: it dials those with a higher
// index, announcing its own, and accepts those with a lower one.
func (t *WorkerTransport) connect() error {
	a := t.a
	deadline := time.Now().Add(t.opt.joinTimeout)
	for j := a.Index + 1; j < len(a.Peers); j++ {
		conn, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", a.Peers[j].Addr)
		if err == nil {
			err = t.add(j, conn, wire.WriteFrame(conn, wire.MsgHello, encodeCount(a.Index)))
		}
		if err != nil {
			return t.fail(j, fmt.Errorf("dist: linking worker %d at %s: %w", j, a.Peers[j].Addr, err))
		}
	}
	if d, ok := t.ln.(interface{ SetDeadline(time.Time) error }); ok {
		_ = d.SetDeadline(deadline)
	}
	for range a.Index {
		if err := t.accept(deadline); err != nil {
			lower := slices.Index(t.peers, nil) // the first lower peer not linked yet
			return t.fail(lower, fmt.Errorf("dist: awaiting link from worker %d: %w", lower, err))
		}
	}
	return nil
}

// accept takes one link from a lower-indexed peer, which names itself in
// a Hello.
func (t *WorkerTransport) accept(deadline time.Time) error {
	conn, err := t.ln.Accept()
	if err != nil {
		return err
	}
	_ = conn.SetReadDeadline(deadline)
	typ, payload, err := wire.ReadFrame(conn, 0)
	j := -1
	if err == nil && typ == wire.MsgHello {
		j, err = decodeCount(payload)
	}
	if err == nil && (j < 0 || j >= t.a.Index || t.peers[j] != nil) {
		err = fmt.Errorf("bad link hello: frame type %d, worker %d", typ, j)
	}
	_ = conn.SetReadDeadline(time.Time{})
	return t.add(j, conn, err)
}

// add registers conn as the link to worker j unless err or a finished run
// says otherwise, in which case conn is closed.
func (t *WorkerTransport) add(j int, conn net.Conn, err error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err == nil {
		err = t.aborted
	}
	if err != nil {
		conn.Close()
		return err
	}
	t.peers[j] = &link{conn: conn, r: bufio.NewReader(conn)}
	return nil
}

// RunWorker dials the coordinator (with backoff, so workers may start
// before it listens), handshakes, links to its peers, runs the assigned
// job through the matching runner, and ships the result. Peers reach this
// worker on the IP its coordinator connection leaves from. It returns when
// the run is over or the run fails.
func RunWorker(addr, name string, runners map[string]Runner, opt Options) error {
	opt = opt.withDefaults()
	conn, err := dialBackoff(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	host, _, err := net.SplitHostPort(conn.LocalAddr().String())
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return fmt.Errorf("dist: peer listener: %w", err)
	}
	defer ln.Close()
	t := &WorkerTransport{conn: conn, opt: opt, ln: ln, culprit: -1, quit: make(chan struct{})}
	defer close(t.quit)
	if err := wire.WriteFrame(conn, wire.MsgHello, encodeHello(name, ln.Addr().String())); err != nil {
		return fmt.Errorf("dist: hello: %w", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(opt.joinTimeout))
	typ, payload, err := wire.ReadFrame(conn, wire.DefaultMaxFrame)
	if err != nil {
		return fmt.Errorf("dist: awaiting job: %w", err)
	}
	switch typ {
	case wire.MsgJob:
	case wire.MsgAbort:
		_, cause := decodeAbort(payload)
		return fmt.Errorf("dist: run aborted: %w", cause)
	default:
		return fmt.Errorf("dist: expected Job, got frame type %d", typ)
	}
	if t.a, err = decodeAssignment(payload); err != nil {
		return fmt.Errorf("dist: job: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	a := t.a
	t.peers = make([]*link, len(a.Peers))
	t.outs = make([][]wire.Event, len(a.Peers))
	t.sends = make(chan sendResult, len(a.Peers))
	runner := runners[a.Kind]
	if runner == nil {
		err := fmt.Errorf("dist: unknown job kind %q", a.Kind)
		t.abort(a.Index, err)
		return err
	}
	// Heartbeats cover the whole run — peer linking and the model build
	// included, which can exceed the liveness deadline on large scenarios.
	go t.heartbeat()
	go t.watch() // closes the peer links once the coordinator connection ends
	// blame tells the coordinator about a failed run: what the transport
	// saw if a peer failed, else this worker's own error.
	blame := func(err error) {
		if t.culprit >= 0 {
			t.abort(t.culprit, t.cause)
		} else {
			t.abort(a.Index, err)
		}
	}
	if err := t.connect(); err != nil {
		blame(err)
		return err
	}
	result, err := runner(a.Job, t)
	if err != nil {
		blame(err)
		return fmt.Errorf("dist: job %q: %w", a.Kind, err)
	}
	t.wmu.Lock()
	err = wire.WriteFrame(conn, wire.MsgResult, encodeResult(t.sum, result))
	t.wmu.Unlock()
	if err != nil {
		return fmt.Errorf("dist: send result: %w", err)
	}
	return nil
}

// abort tells the coordinator the run failed, blaming worker culprit.
func (t *WorkerTransport) abort(culprit int, err error) {
	t.wmu.Lock()
	_ = wire.WriteFrame(t.conn, wire.MsgAbort, encodeAbort(culprit, err))
	t.wmu.Unlock()
}

// dialBackoff retries the coordinator address with exponential backoff
// until dialTimeout elapses.
func dialBackoff(addr string) (net.Conn, error) {
	deadline := time.Now().Add(dialTimeout)
	backoff := 50 * time.Millisecond
	for {
		conn, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("dist: dial %s: %w", addr, err)
		}
		time.Sleep(backoff)
		if backoff < time.Second {
			backoff *= 2
		}
	}
}
