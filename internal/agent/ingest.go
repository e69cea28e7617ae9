// Ingest is the agent plane's network front end: a TCP listener speaking
// a framed wire protocol (internal/wire framing — versioned header, CRC32
// trailer) through which outside processes attach to a live run and
// inject traffic, the scaled-up form of the paper's Agent/WrapSocket
// online simulation. One daemon-level Ingest serves every run: a run
// registers its Agent under its run id when execution starts, clients
// attach by run id, and each connection gets
//
//   - host-index addressing: the attach ack carries the run's host count,
//     and sends/listens name hosts by index into that table, so clients
//     need no topology knowledge;
//   - a credit-based send window: the server grants an initial window and
//     returns one credit per message when the pump epoch injects it into
//     the kernel, so a client can never buffer more than its window
//     inside the daemon — the explicit backpressure signal, and the bound
//     that keeps daemon memory finite at thousands of connections;
//   - drop-don't-stall delivery: completed messages are framed into the
//     connection's outbox while fewer than outBudget bytes wait there; a
//     consumer too slow to take them loses deliveries (counted) rather
//     than ever blocking the simulation or its neighbors;
//   - batched I/O: each end reads frames through a buffer, so one read
//     brings in dozens of small frames, and queues outgoing frames in an
//     outbox whose one writer sends everything waiting in one call, so a
//     burst of sends, deliveries or credits costs one system call rather
//     than one per frame. The server's writer folds every credit granted
//     since its last batch into that batch, so credits are never dropped.
//     Client.Close writes every frame a returned Send or Listen queued
//     before it closes the socket, giving up after closeFlush on a peer
//     that has stopped reading.
//
// A connection therefore holds, per side, its credit window's worth of
// payloads, a readBuffer to read, and its outbox: on the server at most
// outBudget plus one frame pending, and as much again in the batch being
// written. That bound is what keeps thousands of connections affordable.
//
// Frame payloads use the same Buffer/Reader primitives as the distributed
// transport; frame type bytes live in a disjoint range so a client that
// dials the wrong port fails loudly instead of confusing protocols.
package agent

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"massf/internal/model"
	"massf/internal/telemetry"
	"massf/internal/wire"
)

// Ingest frame types (disjoint from the dist transport's Msg* range).
const (
	// MsgAttach is the client's handshake: run id + requested window.
	MsgAttach byte = 0x41 + iota
	// MsgAttachOK acknowledges: run id, host count, granted window.
	MsgAttachOK
	// MsgSend injects one message: from/to host index + payload.
	MsgSend
	// MsgListen subscribes the connection to a host's deliveries.
	MsgListen
	// MsgDeliver carries a completed message back: from/to host index,
	// injected/delivered sim times (ns), payload.
	MsgDeliver
	// MsgCredit returns send-window credits after injection epochs.
	MsgCredit
	// MsgIngestErr reports a fatal protocol or attach error; the server
	// closes the connection after sending it.
	MsgIngestErr
)

// DefaultWindow is the per-connection send window granted when the client
// requests none.
const DefaultWindow = 1024

// maxIngestFrame bounds one ingest frame (a live message, not a scenario
// upload).
const maxIngestFrame = 1 << 20

// readBuffer sizes each end's frame reader: about 48 MsgSend frames of
// a 64-byte payload per read.
const readBuffer = 4 << 10

// outBudget bounds the deliveries a connection's outbox holds while its
// writer is busy: a delivery that finds this many bytes pending is
// dropped. Credits are appended at write time and never dropped.
const outBudget = 64 << 10

// ingestRun is one registered live run.
type ingestRun struct {
	id    string
	agent *Agent
	hosts []model.NodeID
	index map[model.NodeID]int // hosts inverted, for framing deliveries
}

// Ingest accepts agent connections and routes them to registered runs.
type Ingest struct {
	window int

	mu    sync.Mutex
	runs  map[string]*ingestRun
	conns map[*ingestConn]struct{}
	next  uint64
	ln    net.Listener

	accepted      atomic.Uint64
	sent          atomic.Uint64
	backpressured atomic.Uint64
	delivered     atomic.Uint64
	dropped       atomic.Uint64

	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewIngest creates an ingest plane granting each connection the given
// send window (≤ 0 selects DefaultWindow).
func NewIngest(window int) *Ingest {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Ingest{
		window: window,
		runs:   make(map[string]*ingestRun),
		conns:  make(map[*ingestConn]struct{}),
	}
}

// Register exposes a run's agent to incoming connections under id. hosts
// is the index→node table clients address by; it must not be mutated
// afterwards. Call before the simulation starts accepting pump epochs is
// not required — attaching is valid at any point of the run's life.
func (g *Ingest) Register(id string, a *Agent, hosts []model.NodeID) {
	index := make(map[model.NodeID]int, len(hosts))
	for i, h := range hosts {
		index[h] = i
	}
	g.mu.Lock()
	g.runs[id] = &ingestRun{id: id, agent: a, hosts: hosts, index: index}
	g.mu.Unlock()
}

// Unregister withdraws a run and closes every connection attached to it
// (the run is over; lingering clients get an EOF, not a hang).
func (g *Ingest) Unregister(id string) {
	g.mu.Lock()
	delete(g.runs, id)
	var victims []*ingestConn
	for c := range g.conns {
		if c.run != nil && c.run.id == id {
			victims = append(victims, c)
		}
	}
	g.mu.Unlock()
	for _, c := range victims {
		c.teardown()
	}
}

// Serve accepts connections on ln until Close. It returns nil after Close
// and the accept error otherwise.
func (g *Ingest) Serve(ln net.Listener) error {
	g.mu.Lock()
	g.ln = ln
	g.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if g.closed.Load() {
				return nil
			}
			return err
		}
		g.accepted.Add(1)
		g.mu.Lock()
		g.next++
		ic := newIngestConn(g, c, g.next)
		g.conns[ic] = struct{}{}
		g.mu.Unlock()
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			ic.serve()
		}()
	}
}

// Conns returns the number of live connections.
func (g *Ingest) Conns() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.conns)
}

// Close stops accepting, tears down every connection and waits for their
// goroutines.
func (g *Ingest) Close() error {
	if g.closed.Swap(true) {
		return nil
	}
	g.mu.Lock()
	ln := g.ln
	conns := make([]*ingestConn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	g.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.teardown()
	}
	g.wg.Wait()
	return err
}

// Counters snapshots the plane-wide activity counters.
func (g *Ingest) Counters() (sent, backpressured, delivered, dropped uint64) {
	return g.sent.Load(), g.backpressured.Load(), g.delivered.Load(), g.dropped.Load()
}

// Gather exposes the ingest plane's counters as telemetry points for the
// daemon's aggregate /metrics exposition.
func (g *Ingest) Gather() []telemetry.Point {
	gauge := func(name, help string, v float64) telemetry.Point {
		return telemetry.Point{Name: name, Kind: "gauge", Help: help, Value: v}
	}
	counter := func(name, help string, v uint64) telemetry.Point {
		return telemetry.Point{Name: name, Kind: "counter", Help: help, Value: float64(v)}
	}
	return []telemetry.Point{
		gauge("massfd_agent_conns", "Live agent ingest connections.", float64(g.Conns())),
		counter("massfd_agent_accepted_total", "Agent connections accepted.", g.accepted.Load()),
		counter("massfd_agent_sent_total", "Live messages accepted for injection.", g.sent.Load()),
		counter("massfd_agent_backpressured_total", "Live messages refused because the connection's send window was closed.", g.backpressured.Load()),
		counter("massfd_agent_delivered_total", "Deliveries framed back to agent connections.", g.delivered.Load()),
		counter("massfd_agent_dropped_total", "Deliveries dropped on slow or detached connections.", g.dropped.Load()),
	}
}

// ingestConn is one client connection's server-side state.
type ingestConn struct {
	g  *Ingest
	c  net.Conn
	id uint64

	run *ingestRun // set at attach (guarded by g.mu for Unregister scans)

	// outstanding counts messages accepted but not yet injected; credit
	// accumulates injections not yet granted back to the client.
	outstanding atomic.Int64
	credit      atomic.Int64
	window      int64

	ob *outbox

	seq uint64 // per-connection message sequence (ordering key low bits)
}

func newIngestConn(g *Ingest, c net.Conn, id uint64) *ingestConn {
	return &ingestConn{g: g, c: c, id: id, ob: newOutbox()}
}

// teardown closes the outbox and the socket, which ends the writer and
// any Write it is stuck in; idempotent.
func (ic *ingestConn) teardown() {
	ic.ob.close()
	ic.c.Close()
}

// retire tears the connection down, waits for its writer and forgets it.
func (ic *ingestConn) retire() {
	ic.teardown()
	<-ic.ob.done
	ic.g.mu.Lock()
	delete(ic.g.conns, ic)
	ic.g.mu.Unlock()
}

// serve runs the connection: attach handshake, then the read loop, with
// the outbox's writer sending deliveries and credits concurrently.
func (ic *ingestConn) serve() {
	go func() {
		if ic.ob.run(ic.c, ic.appendCredit) != nil {
			ic.teardown()
		}
	}()
	defer ic.retire()
	br := bufio.NewReaderSize(ic.c, readBuffer)
	if err := ic.attach(br); err != nil {
		ic.fail(err)
		return
	}
	for {
		typ, payload, err := wire.ReadFrame(br, maxIngestFrame)
		if err != nil {
			return // disconnect (or teardown closed the socket under us)
		}
		switch typ {
		case MsgSend:
			if err := ic.handleSend(payload); err != nil {
				ic.fail(err)
				return
			}
		case MsgListen:
			if err := ic.handleListen(payload); err != nil {
				ic.fail(err)
				return
			}
		default:
			ic.fail(fmt.Errorf("agent: unexpected frame type 0x%02x", typ))
			return
		}
	}
}

// attach performs the handshake: the first frame must be MsgAttach naming
// a registered run.
func (ic *ingestConn) attach(br *bufio.Reader) error {
	typ, payload, err := wire.ReadFrame(br, maxIngestFrame)
	if err != nil {
		return err
	}
	if typ != MsgAttach {
		return fmt.Errorf("agent: expected attach, got frame type 0x%02x", typ)
	}
	r := wire.NewReader(payload)
	runID := r.String()
	reqWindow := r.U32()
	if r.Err() != nil {
		return fmt.Errorf("agent: bad attach frame: %w", r.Err())
	}
	ic.g.mu.Lock()
	run := ic.g.runs[runID]
	ic.run = run
	ic.g.mu.Unlock()
	if run == nil {
		return fmt.Errorf("agent: no live run %q registered for ingest", runID)
	}
	ic.window = int64(ic.g.window)
	if reqWindow > 0 && int64(reqWindow) < ic.window {
		ic.window = int64(reqWindow)
	}
	var b wire.Buffer
	b.String(runID)
	b.U32(uint32(len(run.hosts)))
	b.U32(uint32(ic.window))
	return wire.WriteFrame(ic.c, MsgAttachOK, b.B)
}

// fail best-effort reports err to the client before the teardown in
// retire closes the socket. Its frame is one Write call, as is each of
// the outbox's batches, so it never lands inside a batch.
func (ic *ingestConn) fail(err error) {
	var b wire.Buffer
	b.String(err.Error())
	wire.WriteFrame(ic.c, MsgIngestErr, b.B)
}

// handleSend validates and queues one live message. A send beyond the
// window is refused and counted — the window is closed, and the client
// library stops before this ever triggers; a raw client that ignores
// credits just loses messages, never memory.
func (ic *ingestConn) handleSend(payload []byte) error {
	r := wire.NewReader(payload)
	from := r.U32()
	to := r.U32()
	body := r.BytesView()
	if r.Err() != nil {
		return fmt.Errorf("agent: bad send frame: %w", r.Err())
	}
	hosts := ic.run.hosts
	if int(from) >= len(hosts) || int(to) >= len(hosts) {
		return fmt.Errorf("agent: host index out of range (%d, %d of %d)", from, to, len(hosts))
	}
	if ic.outstanding.Load() >= ic.window {
		ic.g.backpressured.Add(1)
		return nil
	}
	ic.outstanding.Add(1)
	ic.g.sent.Add(1)
	ic.seq++
	key := ic.id<<32 | (ic.seq & 0xffffffff)
	// body aliases the frame's payload, which ReadFrame allocated for this
	// frame alone, so the message may keep it.
	ic.run.agent.send(hosts[from], hosts[to], body, key, ic.onInject)
	return nil
}

// onInject runs on the injecting engine at a pump epoch: move one unit of
// outstanding into credit and wake the writer. Must not block.
func (ic *ingestConn) onInject() {
	ic.outstanding.Add(-1)
	ic.credit.Add(1)
	ic.ob.signal()
}

// appendCredit is the writer's last step before each Write: it folds every
// credit granted since the previous batch into one MsgCredit frame.
func (ic *ingestConn) appendCredit(batch []byte) []byte {
	n := ic.credit.Swap(0)
	if n == 0 {
		return batch
	}
	var p [4]byte
	binary.LittleEndian.PutUint32(p[:], uint32(n))
	return wire.AppendFrame(batch, MsgCredit, p[:])
}

// handleListen subscribes the connection to a host's deliveries.
func (ic *ingestConn) handleListen(payload []byte) error {
	r := wire.NewReader(payload)
	h := r.U32()
	if r.Err() != nil {
		return fmt.Errorf("agent: bad listen frame: %w", r.Err())
	}
	run := ic.run
	if int(h) >= len(run.hosts) {
		return fmt.Errorf("agent: host index %d out of range (%d hosts)", h, len(run.hosts))
	}
	run.agent.Listen(run.hosts[h], func(m Message) bool {
		from, ok := run.index[m.From]
		if !ok {
			from = -1
		}
		var b wire.Buffer
		b.U32(uint32(from))
		b.U32(h)
		b.I64(int64(m.InjectedAt))
		b.I64(int64(m.DeliveredAt))
		b.Bytes(m.Payload)
		if !ic.ob.add(MsgDeliver, b.B, outBudget) {
			ic.g.dropped.Add(1)
			return false
		}
		ic.g.delivered.Add(1)
		ic.ob.signal()
		return true
	})
	return nil
}

// outbox queues one end's outgoing frames for a single writer goroutine.
// Frames are encoded straight into the pending batch; the writer takes the
// whole batch and writes it with one Write, so a burst of frames costs one
// system call, and frames pile up only while a write is in flight.
type outbox struct {
	mu      sync.Mutex
	pending []byte
	closed  bool
	wake    chan struct{} // one token covers every change since the writer's last look
	done    chan struct{} // closed when run returns
}

func newOutbox() *outbox {
	return &outbox{wake: make(chan struct{}, 1), done: make(chan struct{})}
}

// add appends one frame to the pending batch. It refuses the frame once
// the outbox is closed, or when limit > 0 and limit bytes are already
// pending, so a batch exceeds limit by at most one frame.
func (o *outbox) add(typ byte, payload []byte, limit int) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed || (limit > 0 && len(o.pending) >= limit) {
		return false
	}
	o.pending = wire.AppendFrame(o.pending, typ, payload)
	return true
}

// signal wakes the writer without blocking.
func (o *outbox) signal() {
	select {
	case o.wake <- struct{}{}:
	default:
	}
}

// close refuses further frames; the writer writes what is pending and
// returns.
func (o *outbox) close() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	o.signal()
}

// run is the writer loop. Each time it is woken it takes the pending
// batch, lets extra (if non-nil) append to it, and writes it in one call.
// Two arrays take turns: the batch taken is replaced by the array the
// previous write finished with, never the one about to be written, so add
// cannot append into an array a write still reads. run returns nil after
// the batch it takes once the outbox is closed, and the error of a failed
// write, after which the outbox refuses frames.
func (o *outbox) run(w io.Writer, extra func([]byte) []byte) error {
	defer close(o.done)
	var spare []byte
	for {
		<-o.wake
		o.mu.Lock()
		batch, last := o.pending, o.closed
		o.pending = spare
		o.mu.Unlock()
		if extra != nil {
			batch = extra(batch)
		}
		if len(batch) > 0 {
			if _, err := w.Write(batch); err != nil {
				o.mu.Lock()
				o.closed, o.pending = true, nil
				o.mu.Unlock()
				return err
			}
		}
		if last {
			return nil
		}
		// An array one large frame grew is not kept for the connection's
		// lifetime.
		spare = nil
		if cap(batch) <= 2*outBudget {
			spare = batch[:0]
		}
	}
}

// ErrIngestClosed reports an operation on a closed ingest client.
var ErrIngestClosed = errors.New("agent: ingest connection closed")
