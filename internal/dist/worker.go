package dist

import (
	"fmt"
	"net"
	"sync"
	"time"

	"massf/internal/pdes"
	"massf/internal/wire"
)

// Runner executes one worker's share of a distributed job: build that
// share of the scenario from job.Spec, run the hosted engine range with t
// as pdes.Config.Transport, and return the worker's opaque result payload.
// The job kind string selects the runner (registered by the cmd layer).
type Runner func(job Job, t pdes.Transport) ([]byte, error)

// WorkerTransport is the TCP implementation of pdes.Transport: one
// connection to the coordinator, wire-framed, with a keepalive goroutine
// heartbeating while the engines compute so the coordinator's liveness
// deadline never fires on a healthy worker.
type WorkerTransport struct {
	conn net.Conn
	opt  Options
	wmu  sync.Mutex // serializes frame writes with the heartbeat goroutine
	enc  []byte
}

// Exchange implements pdes.Transport over the coordinator connection.
func (t *WorkerTransport) Exchange(d pdes.WindowDone) (pdes.WindowGo, error) {
	t.enc = encodeWindowDone(t.enc[:0], d)
	t.wmu.Lock()
	err := wire.WriteFrame(t.conn, wire.MsgWindowDone, t.enc)
	t.wmu.Unlock()
	if err != nil {
		return pdes.WindowGo{}, fmt.Errorf("dist: send window %d: %w", d.Window, err)
	}
	// The reply waits on the globally slowest worker, so this deadline is
	// the exchange timeout, not the heartbeat timeout.
	_ = t.conn.SetReadDeadline(time.Now().Add(t.opt.ExchangeTimeout))
	typ, payload, err := wire.ReadFrame(t.conn, wire.DefaultMaxFrame)
	if err != nil {
		return pdes.WindowGo{}, fmt.Errorf("dist: awaiting window %d release: %w", d.Window, err)
	}
	switch typ {
	case wire.MsgWindowGo:
		g, err := decodeWindowGo(payload)
		if err != nil {
			return pdes.WindowGo{}, fmt.Errorf("dist: window %d release: %w", d.Window, err)
		}
		return g, nil
	case wire.MsgAbort:
		return pdes.WindowGo{}, fmt.Errorf("dist: run aborted: %s", decodeAbort(payload))
	default:
		return pdes.WindowGo{}, fmt.Errorf("dist: unexpected frame type %d awaiting window release", typ)
	}
}

// heartbeat keeps the coordinator's liveness deadline fed between
// exchanges (long windows, model build, result encoding).
func (t *WorkerTransport) heartbeat(stop <-chan struct{}) {
	tick := time.NewTicker(t.opt.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			t.wmu.Lock()
			err := wire.WriteFrame(t.conn, wire.MsgHeartbeat, nil)
			t.wmu.Unlock()
			if err != nil {
				return // the next Exchange will surface the failure
			}
		}
	}
}

// RunWorker dials the coordinator (with backoff, so workers may start
// before it listens), handshakes, runs the assigned job through the
// matching runner, and ships the result. It returns when the run is over
// or the connection fails.
func RunWorker(addr, name string, runners map[string]Runner, opt Options) error {
	opt = opt.withDefaults()
	conn, err := dialBackoff(addr, opt.DialTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	t := &WorkerTransport{conn: conn, opt: opt}
	t.wmu.Lock()
	err = wire.WriteFrame(conn, wire.MsgHello, encodeHello(name))
	t.wmu.Unlock()
	if err != nil {
		return fmt.Errorf("dist: hello: %w", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(opt.JoinTimeout))
	typ, payload, err := wire.ReadFrame(conn, wire.DefaultMaxFrame)
	if err != nil {
		return fmt.Errorf("dist: awaiting job: %w", err)
	}
	if typ != wire.MsgJob {
		return fmt.Errorf("dist: expected Job, got frame type %d", typ)
	}
	job, err := decodeJob(payload)
	if err != nil {
		return fmt.Errorf("dist: job: %w", err)
	}
	runner := runners[job.Kind]
	if runner == nil {
		t.abort(fmt.Sprintf("unknown job kind %q", job.Kind))
		return fmt.Errorf("dist: unknown job kind %q", job.Kind)
	}
	// Heartbeats cover the whole run — model build included, which can
	// exceed the liveness deadline on large scenarios.
	stop := make(chan struct{})
	defer close(stop)
	go t.heartbeat(stop)
	result, err := runner(job, t)
	if err != nil {
		t.abort(err.Error())
		return fmt.Errorf("dist: job %q: %w", job.Kind, err)
	}
	t.wmu.Lock()
	err = wire.WriteFrame(conn, wire.MsgResult, result)
	t.wmu.Unlock()
	if err != nil {
		return fmt.Errorf("dist: send result: %w", err)
	}
	return nil
}

func (t *WorkerTransport) abort(reason string) {
	t.wmu.Lock()
	_ = wire.WriteFrame(t.conn, wire.MsgAbort, encodeAbort(reason))
	t.wmu.Unlock()
}

// dialBackoff retries the coordinator address with exponential backoff
// until total elapses.
func dialBackoff(addr string, total time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(total)
	backoff := 50 * time.Millisecond
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
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
