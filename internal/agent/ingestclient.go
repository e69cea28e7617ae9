package agent

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"massf/internal/wire"
)

// closeFlush bounds how long Close waits for the frames Send accepted to
// reach a peer that has stopped reading.
const closeFlush = time.Second

// Delivery is one completed message framed back to an ingest client.
type Delivery struct {
	From, To int // host indices
	// InjectedNS/DeliveredNS are simulated times in nanoseconds.
	InjectedNS, DeliveredNS int64
	Payload                 []byte
}

// Client is the Go client of the ingest wire protocol: one TCP
// connection attached to a live run, with the server's credit window
// enforced locally so Send blocks instead of overrunning the daemon.
// Send and Listen encode their frame into the connection's outbox and
// return; its writer goroutine writes whatever has gathered in one call,
// and the credit window bounds what can gather. Safe for concurrent
// senders; frames go out in the order their calls took the client's lock.
type Client struct {
	c     net.Conn
	hosts int

	mu      sync.Mutex
	cond    *sync.Cond
	credits int
	err     error
	scratch wire.Buffer // Send's payload encoding, reused

	ob         *outbox
	deliveries chan Delivery
	closeOnce  sync.Once
}

// Dial attaches to run runID on the ingest listener at addr. window
// requests a send-window size (0 accepts the server default). The
// returned client's Hosts reports the run's host-table size; Send
// addresses hosts by index into it.
func Dial(addr, runID string, window int) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	var b wire.Buffer
	b.String(runID)
	b.U32(uint32(window))
	if err := wire.WriteFrame(c, MsgAttach, b.B); err != nil {
		c.Close()
		return nil, err
	}
	br := bufio.NewReaderSize(c, readBuffer)
	typ, payload, err := wire.ReadFrame(br, maxIngestFrame)
	if err != nil {
		c.Close()
		return nil, err
	}
	if typ == MsgIngestErr {
		r := wire.NewReader(payload)
		msg := r.String()
		c.Close()
		return nil, fmt.Errorf("agent: attach refused: %s", msg)
	}
	if typ != MsgAttachOK {
		c.Close()
		return nil, fmt.Errorf("agent: expected attach ack, got frame type 0x%02x", typ)
	}
	r := wire.NewReader(payload)
	_ = r.String() // run id echo
	hosts := r.U32()
	granted := r.U32()
	if r.Err() != nil {
		c.Close()
		return nil, fmt.Errorf("agent: bad attach ack: %w", r.Err())
	}
	cl := &Client{
		c:          c,
		hosts:      int(hosts),
		credits:    int(granted),
		ob:         newOutbox(),
		deliveries: make(chan Delivery, 256),
	}
	cl.cond = sync.NewCond(&cl.mu)
	go cl.readLoop(br)
	go func() {
		if err := cl.ob.run(c, nil); err != nil {
			cl.fail(err)
		}
	}()
	return cl, nil
}

// Hosts returns the attached run's host count; Send/Listen indices must
// be < Hosts.
func (cl *Client) Hosts() int { return cl.hosts }

// Send injects one message from host index from to host index to,
// blocking while the send window is closed — the client-visible form of
// the server's backpressure. It returns once the frame is queued for the
// writer, and the connection error once the server is gone or a write
// failed.
func (cl *Client) Send(from, to int, payload []byte) error {
	cl.mu.Lock()
	for cl.credits <= 0 && cl.err == nil {
		cl.cond.Wait()
	}
	if cl.err != nil {
		cl.mu.Unlock()
		return cl.err
	}
	cl.credits--
	cl.scratch.B = cl.scratch.B[:0]
	cl.scratch.U32(uint32(from))
	cl.scratch.U32(uint32(to))
	cl.scratch.Bytes(payload)
	cl.ob.add(MsgSend, cl.scratch.B, 0)
	cl.mu.Unlock()
	cl.ob.signal()
	return nil
}

// Listen subscribes the connection to deliveries for host index h; they
// arrive on Deliveries. A slow reader loses deliveries at the server (the
// drop-don't-stall contract), never credits. The subscription reaches the
// server before any later Send.
func (cl *Client) Listen(h int) error {
	var b wire.Buffer
	b.U32(uint32(h))
	cl.mu.Lock()
	err := cl.err
	if err == nil {
		cl.ob.add(MsgListen, b.B, 0)
	}
	cl.mu.Unlock()
	cl.ob.signal()
	return err
}

// Deliveries is the channel completed messages arrive on after Listen.
// It closes when the connection dies (run over, Close, network error).
func (cl *Client) Deliveries() <-chan Delivery { return cl.deliveries }

// Close tears the connection down; blocked Sends return ErrIngestClosed.
// Every frame a Send or Listen accepted before Close is written first,
// unless the peer has not taken it within closeFlush.
func (cl *Client) Close() error {
	cl.c.SetWriteDeadline(time.Now().Add(closeFlush))
	cl.fail(ErrIngestClosed)
	<-cl.ob.done
	return cl.c.Close()
}

// fail records the connection's terminal error (the first one wins),
// releases blocked Sends and closes the outbox, whose writer then writes
// its last batch.
func (cl *Client) fail(err error) {
	cl.mu.Lock()
	if cl.err == nil {
		cl.err = err
	}
	cl.cond.Broadcast()
	cl.mu.Unlock()
	cl.ob.close()
}

// readLoop dispatches server frames: credits reopen the send window,
// deliveries go to the channel, errors terminate the connection.
func (cl *Client) readLoop(br *bufio.Reader) {
	defer cl.closeOnce.Do(func() { close(cl.deliveries) })
	for {
		typ, payload, err := wire.ReadFrame(br, maxIngestFrame)
		if err != nil {
			cl.fail(err)
			return
		}
		switch typ {
		case MsgCredit:
			r := wire.NewReader(payload)
			n := r.U32()
			if r.Err() != nil {
				cl.fail(fmt.Errorf("agent: bad credit frame: %w", r.Err()))
				return
			}
			cl.mu.Lock()
			cl.credits += int(n)
			cl.cond.Broadcast()
			cl.mu.Unlock()
		case MsgDeliver:
			r := wire.NewReader(payload)
			d := Delivery{
				From:        int(r.U32()),
				To:          int(r.U32()),
				InjectedNS:  r.I64(),
				DeliveredNS: r.I64(),
			}
			d.Payload = r.BytesView() // ReadFrame's payload is this frame's alone
			if r.Err() != nil {
				cl.fail(fmt.Errorf("agent: bad delivery frame: %w", r.Err()))
				return
			}
			select {
			case cl.deliveries <- d:
			default: // shed locally too rather than stall credit processing
			}
		case MsgIngestErr:
			r := wire.NewReader(payload)
			cl.fail(fmt.Errorf("agent: server error: %s", r.String()))
			return
		default:
			cl.fail(fmt.Errorf("agent: unexpected frame type 0x%02x", typ))
			return
		}
	}
}
