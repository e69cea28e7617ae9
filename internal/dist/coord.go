package dist

import (
	"fmt"
	"net"
	"slices"
	"time"

	"massf/internal/wire"
)

// RunConfig describes a distributed run: its jobs. The window geometry is
// the workers' own, derived by each runner from its job spec; the
// coordinator never interprets specs or payloads.
type RunConfig struct {
	// Jobs lists one assignment per worker; workers receive them in the
	// order they connect. Their engine ranges must tile [0, N).
	Jobs []Job
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
	// ModeledBusyNS is the GLOBAL reduction of the paper's modeled busy
	// time — Σ over windows of the max over all workers — which the
	// workers' partial Stats cannot compute locally. Every worker folds it
	// from its peers' frames and reports it in its result summary.
	ModeledBusyNS int64
}

// frame is one frame a worker sent the coordinator, or the error that
// ended its connection.
type frame struct {
	from    int
	typ     byte
	payload []byte
	err     error
}

// readLoop pumps worker i's frames into c.in and ends with the
// connection's failure. Every read runs under a rolling deadline of
// heartbeatTimeout, so a worker is declared dead only after that long of
// true silence.
func (c *coordinator) readLoop(i int) {
	conn := c.members[i].conn
	for {
		_ = conn.SetReadDeadline(time.Now().Add(c.opt.heartbeatTimeout))
		typ, payload, err := wire.ReadFrame(conn, wire.DefaultMaxFrame)
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			err = fmt.Errorf("heartbeat timeout after %v: %w", c.opt.heartbeatTimeout, err)
		}
		select {
		case c.in <- frame{from: i, typ: typ, payload: payload, err: err}:
		case <-c.quit:
			return
		}
		if err != nil {
			return
		}
	}
}

// member is one joined worker on the coordinator.
type member struct {
	conn net.Conn
	name string
}

// coordinator serves one distributed run.
type coordinator struct {
	rc      RunConfig
	opt     Options
	members []member
	in      chan frame // every member's frames
	quit    chan struct{}
}

// Serve accepts len(rc.Jobs) workers on ln, hands out the jobs, waits for
// the run to finish, and returns the collected results. On any worker
// failure it aborts the surviving workers and returns a *WorkerError
// identifying the culprit. The listener is not closed.
func Serve(ln net.Listener, rc RunConfig, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if _, err := checkJobs(rc.Jobs); err != nil {
		return nil, err
	}
	c := &coordinator{rc: rc, opt: opt, in: make(chan frame, 4*len(rc.Jobs)), quit: make(chan struct{})}
	defer c.closeAll()
	if err := c.join(ln); err != nil {
		return nil, err
	}
	return c.collect()
}

// maxEngines bounds the engines a run spans: a worker's engine table has
// one entry per engine.
const maxEngines = 1 << 16

// checkJobs accepts job ranges that tile [0, N) for N ≤ maxEngines: every
// engine hosted by exactly one worker, and every worker hosting at least
// one. It returns the engine → job table. Serve checks its job list and a
// worker its Job's peer table by it.
func checkJobs(jobs []Job) ([]int, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("dist: no jobs")
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return jobs[a].First - jobs[b].First })
	var owner []int
	for _, i := range order {
		j := jobs[i]
		switch {
		case j.Hosted < 1:
			return nil, fmt.Errorf("dist: job %d hosts %d engines", i, j.Hosted)
		case j.First > len(owner):
			return nil, fmt.Errorf("dist: engine %d assigned to no worker", len(owner))
		case j.First < len(owner):
			return nil, fmt.Errorf("dist: engine %d assigned to two workers", j.First)
		case j.First+j.Hosted > maxEngines:
			return nil, fmt.Errorf("dist: %d engines, more than %d", j.First+j.Hosted, maxEngines)
		}
		for range j.Hosted {
			owner = append(owner, i)
		}
	}
	return owner, nil
}

// join accepts and handshakes every worker, then hands each its job with
// the peer table. Jobs go out in connection order. The listener is the
// caller's: the join deadline armed on it is cleared on return, so a later
// Accept of theirs does not inherit it.
func (c *coordinator) join(ln net.Listener) error {
	deadline := time.Now().Add(c.opt.joinTimeout)
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		_ = d.SetDeadline(deadline) // a listener that cannot time out still joins
		defer d.SetDeadline(time.Time{})
	}
	jobs := c.rc.Jobs
	peers := make([]peerInfo, len(jobs))
	for i, j := range jobs {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("dist: waiting for worker %d/%d to join: %w", i, len(jobs), err)
		}
		c.members = append(c.members, member{conn: conn})
		m := &c.members[i]
		_ = conn.SetReadDeadline(deadline)
		typ, payload, err := wire.ReadFrame(conn, wire.DefaultMaxFrame)
		if err == nil && typ != wire.MsgHello {
			err = fmt.Errorf("expected Hello, got frame type %d", typ)
		}
		var addr string
		if err == nil {
			m.name, addr, err = decodeHello(payload)
		}
		if err != nil {
			return c.fail(i, fmt.Errorf("handshake: %w", err))
		}
		peers[i] = peerInfo{Addr: addr, First: j.First, Hosted: j.Hosted}
	}
	for i, m := range c.members {
		a := assignment{Job: jobs[i], Index: i, Peers: peers}
		if err := wire.WriteFrame(m.conn, wire.MsgJob, encodeAssignment(a)); err != nil {
			return c.fail(i, fmt.Errorf("handshake: %w", err))
		}
	}
	for i := range c.members {
		go c.readLoop(i)
	}
	return nil
}

// collect waits for every worker's Result, blaming the first failure any
// connection shows or any worker reports. A worker that sends no window
// while nothing else moves for exchangeTimeout is stalled: the laggard —
// fewest windows sent, by its heartbeats, lowest index on a tie — is blamed.
func (c *coordinator) collect() (*Result, error) {
	k := len(c.members)
	res := &Result{Payloads: make([][]byte, k), Names: make([]string, k)}
	for i, m := range c.members {
		res.Names[i] = m.name
	}
	sums := make([]summary, k)
	sent := make([]int, k)
	done := make([]bool, k)
	moved := time.Now()
	for left := k; left > 0; {
		stall := time.NewTimer(time.Until(moved.Add(c.opt.exchangeTimeout)))
		var f frame
		select {
		case f = <-c.in:
			stall.Stop()
		case <-stall.C:
			lag := -1
			for i := range sent {
				if !done[i] && (lag < 0 || sent[i] < sent[lag]) {
					lag = i
				}
			}
			return nil, c.fail(lag, fmt.Errorf("stalled: heartbeats flowing but no window sent within %v (%d sent)",
				c.opt.exchangeTimeout, sent[lag]))
		}
		var err error
		switch {
		case done[f.from]: // a finished worker hanging up
		case f.err != nil:
			return nil, c.fail(f.from, f.err)
		case f.typ == wire.MsgHeartbeat:
			var n int
			if n, err = decodeCount(f.payload); err == nil && n != sent[f.from] {
				sent[f.from], moved = n, time.Now()
			}
		case f.typ == wire.MsgResult:
			sums[f.from], res.Payloads[f.from], err = decodeResult(f.payload)
			done[f.from], moved = true, time.Now()
			left--
		case f.typ == wire.MsgAbort:
			culprit, cause := decodeAbort(f.payload)
			if culprit == f.from {
				return nil, c.fail(culprit, fmt.Errorf("worker aborted: %w", cause))
			}
			if culprit < 0 || culprit >= k {
				return nil, c.fail(f.from, fmt.Errorf("abort blames worker %d: %w", culprit, cause))
			}
			return nil, c.fail(culprit, fmt.Errorf("worker %d (%q) reports: %w", f.from, c.members[f.from].name, cause))
		default:
			err = fmt.Errorf("unexpected frame type %d", f.typ)
		}
		if err != nil {
			return nil, c.fail(f.from, err)
		}
	}
	for i, s := range sums {
		if s != sums[0] {
			return nil, c.fail(i, fmt.Errorf("summary %+v disagrees with worker 0's %+v", s, sums[0]))
		}
	}
	res.Windows, res.ModeledBusyNS, res.Stopped = sums[0].windows, sums[0].busyNS, sums[0].stopped
	return res, nil
}

// fail attributes the run failure to worker i and aborts the others.
func (c *coordinator) fail(i int, err error) error {
	j := c.rc.Jobs[i]
	werr := &WorkerError{Index: i, Name: c.members[i].name, First: j.First, Hosted: j.Hosted, Err: err}
	for q, m := range c.members {
		if q != i {
			_ = wire.WriteFrame(m.conn, wire.MsgAbort, encodeAbort(i, werr))
		}
	}
	return werr
}

func (c *coordinator) closeAll() {
	close(c.quit)
	for _, m := range c.members {
		_ = m.conn.Close()
	}
}
