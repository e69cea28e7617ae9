package dist

import (
	"fmt"
	"net"
	"time"

	"massf/internal/des"
	"massf/internal/pdes"
	"massf/internal/wire"
)

// RunConfig describes the global shape of a distributed run. The window
// geometry must match what every worker's runner derives from its job spec
// — the coordinator needs it to make the fast-forward decision, but it
// never interprets specs or payloads.
type RunConfig struct {
	// Jobs lists one assignment per worker; workers receive them in the
	// order they connect.
	Jobs []Job
	// WindowNS is the barrier window length.
	WindowNS int64
	// TotalWindows is the number of windows to the horizon, as
	// pdes.WindowCount gives it — the workers' loops use the same.
	TotalWindows int
	// SyncCostNS is C(N) for the modeled-time fold; 0 disables it.
	SyncCostNS int64
}

// Result is a completed distributed run.
type Result struct {
	// Payloads[i] is the opaque result of the worker running Jobs[i].
	Payloads [][]byte
	// Names[i] is that worker's self-reported name.
	Names []string
	// Windows is the number of barrier windows executed.
	Windows int
	// Stopped reports a cooperative global stop.
	Stopped bool
	// ModeledBusyNS and ModeledTimeNS are the GLOBAL reductions of the
	// paper's modeled execution time — Σ max over all workers per window —
	// which the workers' partial Stats cannot compute locally.
	ModeledBusyNS, ModeledTimeNS int64
}

type frame struct {
	typ     byte
	payload []byte
}

// peer is one connected worker on the coordinator.
type peer struct {
	idx    int
	conn   net.Conn
	name   string
	frames chan frame
	errc   chan error
}

// readLoop pumps frames under a rolling heartbeat deadline: every frame —
// heartbeats included — pushes the deadline out, so a worker is declared
// dead only after HeartbeatTimeout of true silence.
func (p *peer) readLoop(hbTimeout time.Duration) {
	for {
		_ = p.conn.SetReadDeadline(time.Now().Add(hbTimeout))
		typ, payload, err := wire.ReadFrame(p.conn, wire.DefaultMaxFrame)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				err = fmt.Errorf("heartbeat timeout after %v: %w", hbTimeout, err)
			}
			p.errc <- err
			return
		}
		if typ == wire.MsgHeartbeat {
			continue
		}
		p.frames <- frame{typ: typ, payload: payload}
	}
}

// next returns the peer's next protocol frame or its connection failure.
// The timeout catches a STALLED worker — one whose heartbeat goroutine
// keeps the connection alive while its engines make no progress — which
// the liveness deadline alone cannot see.
func (p *peer) next(timeout time.Duration) (frame, error) {
	// A frame already pumped must win over a connection error behind it: a
	// worker that ships its Result and exits closes the connection right
	// after its last frame, and that EOF is not a failure.
	select {
	case f := <-p.frames:
		return f, nil
	default:
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case f := <-p.frames:
		return f, nil
	case err := <-p.errc:
		// Frame and error can both land while this select parks; readLoop
		// sent every frame before the error, so one left behind is here now.
		select {
		case f := <-p.frames:
			p.errc <- err
			return f, nil
		default:
		}
		return frame{}, err
	case <-timer.C:
		return frame{}, fmt.Errorf("stalled: heartbeats flowing but no protocol frame within %v", timeout)
	}
}

// coordinator drives one distributed run.
type coordinator struct {
	rc    RunConfig
	opt   Options
	peers []*peer
	owner []int // engine → worker index
}

// Serve accepts len(rc.Jobs) workers on ln, drives the run to completion,
// and returns the collected results. On any worker failure it aborts the
// surviving workers and returns a *WorkerError identifying the culprit.
// The listener is not closed.
func Serve(ln net.Listener, rc RunConfig, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if len(rc.Jobs) == 0 {
		return nil, fmt.Errorf("dist: no jobs")
	}
	if rc.WindowNS <= 0 {
		return nil, fmt.Errorf("dist: window must be positive, got %d ns", rc.WindowNS)
	}
	c := &coordinator{rc: rc, opt: opt}
	engines := 0
	for _, j := range rc.Jobs {
		if j.First+j.Hosted > engines {
			engines = j.First + j.Hosted
		}
	}
	c.owner = make([]int, engines)
	for i := range c.owner {
		c.owner[i] = -1
	}
	for wi, j := range rc.Jobs {
		for g := j.First; g < j.First+j.Hosted; g++ {
			if c.owner[g] != -1 {
				return nil, fmt.Errorf("dist: engine %d assigned to workers %d and %d", g, c.owner[g], wi)
			}
			c.owner[g] = wi
		}
	}

	if err := c.join(ln); err != nil {
		c.closeAll()
		return nil, err
	}
	defer c.closeAll()
	return c.drive()
}

// join accepts and handshakes every worker, assigning jobs in connection
// order. The listener is the caller's: the join deadline armed on it is
// cleared on return, so a later Accept of theirs does not inherit it.
func (c *coordinator) join(ln net.Listener) error {
	deadline := time.Now().Add(c.opt.JoinTimeout)
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		_ = d.SetDeadline(deadline) // a listener that cannot time out still joins
		defer d.SetDeadline(time.Time{})
	}
	for i := range c.rc.Jobs {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("dist: waiting for worker %d/%d to join: %w", i, len(c.rc.Jobs), err)
		}
		p := &peer{idx: i, conn: conn, frames: make(chan frame, 4), errc: make(chan error, 1)}
		c.peers = append(c.peers, p)
		_ = conn.SetReadDeadline(deadline)
		typ, payload, err := wire.ReadFrame(conn, wire.DefaultMaxFrame)
		if err == nil && typ != wire.MsgHello {
			err = fmt.Errorf("expected Hello, got frame type %d", typ)
		}
		if err == nil {
			p.name, err = decodeHello(payload)
		}
		if err == nil {
			err = wire.WriteFrame(conn, wire.MsgJob, encodeJob(c.rc.Jobs[i]))
		}
		if err != nil {
			return c.fail(p, fmt.Errorf("handshake: %w", err))
		}
	}
	for _, p := range c.peers {
		go p.readLoop(c.opt.HeartbeatTimeout)
	}
	return nil
}

// drive runs the barrier protocol to the horizon and collects results.
func (c *coordinator) drive() (*Result, error) {
	k := len(c.peers)
	res := &Result{Payloads: make([][]byte, k), Names: make([]string, k)}
	for i, p := range c.peers {
		res.Names[i] = p.name
	}
	dones := make([]pdes.WindowDone, k)
	outs := make([][]wire.Event, k)
	var enc []byte
	w := 0
	for w < c.rc.TotalWindows {
		for i, p := range c.peers {
			f, err := p.next(c.opt.ExchangeTimeout)
			if err != nil {
				return nil, c.fail(p, err)
			}
			switch f.typ {
			case wire.MsgWindowDone:
			case wire.MsgAbort:
				return nil, c.fail(p, fmt.Errorf("worker aborted: %s", decodeAbort(f.payload)))
			default:
				return nil, c.fail(p, fmt.Errorf("expected WindowDone, got frame type %d", f.typ))
			}
			d, err := decodeWindowDone(f.payload)
			if err != nil {
				return nil, c.fail(p, fmt.Errorf("window %d: %w", w, err))
			}
			if d.Window != w {
				return nil, c.fail(p, fmt.Errorf("arrived at window %d, barrier is at %d", d.Window, w))
			}
			dones[i] = d
		}
		// Reduce: global stop, global max busy, global next-event time
		// (workers' local minima folded with every in-flight wire event),
		// and star-route the window's events.
		stop := false
		globalNext := des.EndOfTime
		var maxBusy int64
		for i := range outs {
			outs[i] = outs[i][:0]
		}
		for i := range dones {
			d := &dones[i]
			stop = stop || d.Stop
			if d.LocalNext < globalNext {
				globalNext = d.LocalNext
			}
			if d.MaxBusy > maxBusy {
				maxBusy = d.MaxBusy
			}
			for _, ev := range d.Events {
				if des.Time(ev.At) < globalNext {
					globalNext = des.Time(ev.At)
				}
				if ev.Dst < 0 || int(ev.Dst) >= len(c.owner) || c.owner[ev.Dst] < 0 {
					return nil, c.fail(c.peers[i], fmt.Errorf("event for unassigned engine %d", ev.Dst))
				}
				dst := c.owner[ev.Dst]
				if dst == i {
					return nil, c.fail(c.peers[i], fmt.Errorf("event for engine %d looped back to its own worker", ev.Dst))
				}
				outs[dst] = append(outs[dst], ev)
			}
		}
		res.Windows++
		res.ModeledBusyNS += maxBusy
		if maxBusy < c.rc.SyncCostNS {
			maxBusy = c.rc.SyncCostNS
		}
		res.ModeledTimeNS += maxBusy
		next := min(pdes.NextWindow(w, globalNext, des.Time(c.rc.WindowNS)), c.rc.TotalWindows)
		for i, p := range c.peers {
			enc = encodeWindowGo(enc[:0], pdes.WindowGo{NextWindow: next, Stop: stop, Events: outs[i]})
			if err := wire.WriteFrame(p.conn, wire.MsgWindowGo, enc); err != nil {
				return nil, c.fail(p, fmt.Errorf("send window go: %w", err))
			}
		}
		if stop {
			res.Stopped = true
			break
		}
		w = next
	}
	for i, p := range c.peers {
		f, err := p.next(c.opt.ExchangeTimeout)
		if err != nil {
			return nil, c.fail(p, fmt.Errorf("awaiting result: %w", err))
		}
		switch f.typ {
		case wire.MsgResult:
			res.Payloads[i] = f.payload
		case wire.MsgAbort:
			return nil, c.fail(p, fmt.Errorf("worker aborted: %s", decodeAbort(f.payload)))
		default:
			return nil, c.fail(p, fmt.Errorf("expected Result, got frame type %d", f.typ))
		}
	}
	return res, nil
}

// fail attributes the run failure to peer p, aborts the others, and closes
// every connection.
func (c *coordinator) fail(p *peer, err error) error {
	j := c.rc.Jobs[p.idx]
	werr := &WorkerError{Index: p.idx, Name: p.name, First: j.First, Hosted: j.Hosted, Err: err}
	for _, q := range c.peers {
		if q != p {
			_ = wire.WriteFrame(q.conn, wire.MsgAbort, encodeAbort(werr.Error()))
		}
	}
	c.closeAll()
	return werr
}

func (c *coordinator) closeAll() {
	for _, p := range c.peers {
		_ = p.conn.Close()
	}
}
