package dist

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"massf/internal/des"
	"massf/internal/pdes"
	"massf/internal/wire"
)

// --- a tiny replicated-setup workload for end-to-end runs ---

type dModel struct {
	sim    *pdes.Sim
	n      int
	window des.Time
	counts []uint64
	sums   []uint64
}

type dEvent struct {
	m   *dModel
	eng int
	val uint64
	ttl int
}

func (ev *dEvent) OnEvent(now des.Time) {
	m := ev.m
	m.counts[ev.eng]++
	m.sums[ev.eng] += ev.val
	if ev.ttl <= 0 {
		return
	}
	e := m.sim.Engine(ev.eng)
	d1 := (ev.eng + 1) % m.n
	e.ScheduleRemoteEvent(d1, now+m.window, &dEvent{m: m, eng: d1, val: ev.val*5 + 3, ttl: ev.ttl - 1})
	d2 := (ev.eng + 2) % m.n
	if d2 != d1 {
		e.ScheduleRemoteEvent(d2, now+2*m.window, &dEvent{m: m, eng: d2, val: ev.val + 11, ttl: ev.ttl - 1})
	}
}

type dCodec struct{ m *dModel }

func (c dCodec) Encode(eh des.EventHandler) (uint16, []byte, error) {
	ev, ok := eh.(*dEvent)
	if !ok {
		return 0, nil, fmt.Errorf("unknown handler %T", eh)
	}
	var b wire.Buffer
	b.U32(uint32(ev.eng))
	b.U64(ev.val)
	b.U32(uint32(ev.ttl))
	return 1, b.B, nil
}

func (c dCodec) Decode(dst int, kind uint16, payload []byte) (des.EventHandler, error) {
	if kind != 1 {
		return nil, fmt.Errorf("unknown kind %d", kind)
	}
	r := wire.NewReader(payload)
	ev := &dEvent{m: c.m, eng: int(r.U32()), val: r.U64(), ttl: int(r.U32())}
	return ev, r.Err()
}

func encodeDSpec(engines int, window, end des.Time, ttl int) []byte {
	var b wire.Buffer
	b.U32(uint32(engines))
	b.I64(int64(window))
	b.I64(int64(end))
	b.U32(uint32(ttl))
	return b.B
}

func buildDModel(spec []byte, transport pdes.Transport, first, hosted int) (*dModel, error) {
	r := wire.NewReader(spec)
	n := int(r.U32())
	window := des.Time(r.I64())
	end := des.Time(r.I64())
	ttl := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	m := &dModel{n: n, window: window, counts: make([]uint64, n), sums: make([]uint64, n)}
	cfg := pdes.Config{Engines: n, Window: window, End: end}
	if transport != nil {
		cfg.Transport = transport
		cfg.Codec = dCodec{m: m}
		cfg.FirstEngine = first
		cfg.HostedEngines = hosted
	}
	sim, err := pdes.New(cfg)
	if err != nil {
		return nil, err
	}
	m.sim = sim
	for i := 0; i < n; i++ {
		sim.Engine(i).ScheduleEvent(des.Time(i+1)*window/3+1, &dEvent{m: m, eng: i, val: uint64(i)*17 + 1, ttl: ttl})
	}
	return m, nil
}

func dRunner(job Job, t pdes.Transport) ([]byte, error) {
	m, err := buildDModel(job.Spec, t, job.First, job.Hosted)
	if err != nil {
		return nil, err
	}
	return m.run()
}

// run executes the model and encodes its Result payload.
func (m *dModel) run() ([]byte, error) {
	stats := m.sim.Run()
	if stats.Err != nil {
		return nil, stats.Err
	}
	var b wire.Buffer
	b.U64(stats.TotalEvents)
	b.U64(stats.RemoteEvents)
	b.U32(uint32(stats.Windows))
	for i := 0; i < m.n; i++ {
		b.U64(m.counts[i])
		b.U64(m.sums[i])
	}
	return b.B, nil
}

// runWorkers starts one RunWorker goroutine per job and returns their
// errors' channel.
func runWorkers(addr string, n int, runners map[string]Runner) <-chan error {
	werrs := make(chan error, n)
	for j := 0; j < n; j++ {
		go func() {
			werrs <- RunWorker(addr, fmt.Sprintf("w%d", j), runners, Options{})
		}()
	}
	return werrs
}

// TestLoopbackDistributedRun splits the 8-engine model over 1 to 4 workers
// in a mesh: each split must reproduce the in-process reference exactly.
func TestLoopbackDistributedRun(t *testing.T) {
	const engines = 8
	window := des.Millisecond
	end := 40 * des.Millisecond
	spec := encodeDSpec(engines, window, end, 10)

	ref, err := buildDModel(spec, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	refStats := ref.sim.Run()
	if refStats.TotalEvents == 0 || refStats.RemoteEvents == 0 {
		t.Fatalf("degenerate reference: %+v", refStats)
	}

	for _, split := range [][]int{{8}, {3, 5}, {1, 3, 4}, {2, 2, 2, 2}} {
		t.Run(fmt.Sprint(split), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			var jobs []Job
			first := 0
			for _, n := range split {
				jobs = append(jobs, Job{Kind: "dtest", First: first, Hosted: n, Spec: spec})
				first += n
			}
			werrs := runWorkers(ln.Addr().String(), len(jobs), map[string]Runner{"dtest": dRunner})
			res, err := Serve(ln, RunConfig{Jobs: jobs}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for range jobs {
				if werr := <-werrs; werr != nil {
					t.Fatalf("worker: %v", werr)
				}
			}

			var totalEvents, remote uint64
			counts := make([]uint64, engines)
			sums := make([]uint64, engines)
			for i, p := range res.Payloads {
				r := wire.NewReader(p)
				totalEvents += r.U64()
				remote += r.U64()
				if w := int(r.U32()); w != refStats.Windows {
					t.Errorf("worker %d executed %d windows, reference %d", i, w, refStats.Windows)
				}
				for e := 0; e < engines; e++ {
					counts[e] += r.U64()
					sums[e] += r.U64()
				}
				if r.Err() != nil {
					t.Fatalf("worker %d payload: %v", i, r.Err())
				}
			}
			if totalEvents != refStats.TotalEvents || remote != refStats.RemoteEvents {
				t.Errorf("merged events %d/%d, reference %d/%d", totalEvents, remote, refStats.TotalEvents, refStats.RemoteEvents)
			}
			for e := 0; e < engines; e++ {
				if counts[e] != ref.counts[e] || sums[e] != ref.sums[e] {
					t.Errorf("engine %d: (%d,%d), reference (%d,%d)", e, counts[e], sums[e], ref.counts[e], ref.sums[e])
				}
			}
			if res.Windows != refStats.Windows {
				t.Errorf("workers counted %d windows, reference %d", res.Windows, refStats.Windows)
			}
			if res.ModeledBusyNS != refStats.ModeledBusyNS {
				t.Errorf("global modeled busy %d, reference %d", res.ModeledBusyNS, refStats.ModeledBusyNS)
			}
		})
	}
}

// TestWorkerReleasesSimulation: once Serve and both RunWorker loops have
// returned, neither worker's model is reachable. The witness is a
// finalizer on each model's counts array, which only the model holds: the
// model's pending events point back at it, and a finalizer on an object in
// such a cycle is not guaranteed to run.
func TestWorkerReleasesSimulation(t *testing.T) {
	const engines = 4
	spec := encodeDSpec(engines, des.Millisecond, 20*des.Millisecond, 6)
	freed := make(chan struct{}, 2)
	runner := func(job Job, tr pdes.Transport) ([]byte, error) {
		m, err := buildDModel(job.Spec, tr, job.First, job.Hosted)
		if err != nil {
			return nil, err
		}
		runtime.SetFinalizer(&m.counts[0], func(*uint64) { freed <- struct{}{} })
		return m.run()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	jobs := []Job{
		{Kind: "dtest", First: 0, Hosted: 2, Spec: spec},
		{Kind: "dtest", First: 2, Hosted: 2, Spec: spec},
	}
	werrs := runWorkers(ln.Addr().String(), len(jobs), map[string]Runner{"dtest": runner})
	if _, err := Serve(ln, RunConfig{Jobs: jobs}, Options{}); err != nil {
		t.Fatal(err)
	}
	for range jobs {
		if werr := <-werrs; werr != nil {
			t.Fatalf("worker: %v", werr)
		}
	}
	for left, i := len(jobs), 0; left > 0; i++ {
		if i == 1000 {
			t.Fatalf("%d of %d workers still hold their simulation after returning", left, len(jobs))
		}
		runtime.GC()
		select {
		case <-freed:
			left--
		default:
			runtime.Gosched() // let the finalizer goroutine run
		}
	}
}

// Two workers that send each other, in the same window, frames far bigger
// than the socket buffers must not wait on each other's reads.
func TestBigFramesDoNotDeadlock(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const total, perWindow = 2, 128 // 128 events of 60 kB: ≈ 8 MB a frame
	payload := make([]byte, 60_000)
	big := func(job Job, tr pdes.Transport) ([]byte, error) {
		for w := 0; w < total; w++ {
			start, end := des.Time(w)*des.Millisecond, des.Time(w+1)*des.Millisecond
			evs := make([]wire.Event, perWindow)
			for i := range evs {
				evs[i] = wire.Event{At: int64(end), Src: int32(job.First), Dst: int32(1 - job.First), Seq: uint64(i), Payload: payload}
			}
			g, err := tr.Exchange(pdes.WindowDone{Start: start, End: end, LocalNext: end, Events: evs})
			if err != nil {
				return nil, err
			}
			if len(g.Events) != perWindow || len(g.Events[0].Payload) != len(payload) {
				return nil, fmt.Errorf("window %d: received %d events", w, len(g.Events))
			}
		}
		return nil, nil
	}
	werrs := runWorkers(ln.Addr().String(), 2, map[string]Runner{"big": big})
	res, err := Serve(ln, RunConfig{
		Jobs: []Job{{Kind: "big", First: 0, Hosted: 1}, {Kind: "big", First: 1, Hosted: 1}},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if werr := <-werrs; werr != nil {
			t.Fatalf("worker: %v", werr)
		}
	}
	if res.Windows != total {
		t.Fatalf("windows %d, want %d", res.Windows, total)
	}
}

// Serve refuses a job list whose engine ranges do not tile [0, N) before
// any worker joins: a hole would lose that engine's events silently.
func TestServeRejectsBadJobs(t *testing.T) {
	spec := encodeDSpec(4, des.Millisecond, 5*des.Millisecond, 0)
	for _, tc := range []struct {
		name string
		jobs [][2]int // First, Hosted
		want string
	}{
		{"hole", [][2]int{{0, 2}, {3, 1}}, "engine 2 assigned to no worker"},
		{"overlap", [][2]int{{0, 3}, {2, 2}}, "engine 2 assigned to two workers"},
		{"zero hosted", [][2]int{{0, 4}, {4, 0}}, "hosts 0 engines"},
		{"not from 0", [][2]int{{1, 3}}, "engine 0 assigned to no worker"},
		{"too many engines", [][2]int{{0, maxEngines + 1}}, "more than"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var jobs []Job
			for _, r := range tc.jobs {
				jobs = append(jobs, Job{Kind: "dtest", First: r[0], Hosted: r[1], Spec: spec})
			}
			_, err := Serve(noAccept{t}, RunConfig{Jobs: jobs}, Options{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Serve: %v, want %q", err, tc.want)
			}
		})
	}
}

// A worker checks its Job's peer table by Serve's own rule, and its own
// row against its job: the table sizes the worker's engine table and
// routes every event it sends, so a hole, an overlap or a row ending near
// 2³² must end the worker with an error, before it links to any peer.
func TestWorkerRejectsHostilePeerTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		own  [2]int   // the job's First, Hosted; the worker is index 0
		rows [][2]int // the peer table's First, Hosted
		want string
	}{
		{"overlap", [2]int{0, 2}, [][2]int{{0, 2}, {1, 2}}, "engine 1 assigned to two workers"},
		{"gap", [2]int{0, 2}, [][2]int{{0, 2}, {3, 1}}, "engine 2 assigned to no worker"},
		{"own row mismatch", [2]int{0, 1}, [][2]int{{0, 2}, {2, 2}}, "own peer row"},
		{"row ending at 2^32-1", [2]int{0, 1}, [][2]int{{0, 1}, {1, 1<<32 - 2}}, "4294967295 engines"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			werr := make(chan error, 1)
			go func() { werr <- RunWorker(ln.Addr().String(), "w0", nil, Options{}) }()
			conn, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if typ, _, err := wire.ReadFrame(conn, 0); err != nil || typ != wire.MsgHello {
				t.Fatalf("handshake: type %d err %v", typ, err)
			}
			a := assignment{Job: Job{Kind: "x", First: tc.own[0], Hosted: tc.own[1]}}
			for _, r := range tc.rows {
				a.Peers = append(a.Peers, peerInfo{Addr: "127.0.0.1:1", First: r[0], Hosted: r[1]})
			}
			if err := wire.WriteFrame(conn, wire.MsgJob, encodeAssignment(a)); err != nil {
				t.Fatal(err)
			}
			if err := <-werr; err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunWorker: %v, want %q", err, tc.want)
			}
		})
	}
}

// noAccept is a listener Serve must not accept on.
type noAccept struct{ t *testing.T }

func (l noAccept) Accept() (net.Conn, error) {
	l.t.Error("Serve accepted a worker for a job list it must reject")
	return nil, errors.New("no accept")
}
func (noAccept) Close() error   { return nil }
func (noAccept) Addr() net.Addr { return &net.TCPAddr{} }

// The listener belongs to Serve's caller: the join deadline Serve arms on it
// must be gone when Serve returns, or the caller's next Accept after that
// instant fails at once with an i/o timeout.
func TestServeClearsListenerDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	window, end := des.Millisecond, 5*des.Millisecond
	opt := Options{joinTimeout: 50 * time.Millisecond}
	werr := make(chan error, 1)
	go func() {
		werr <- RunWorker(ln.Addr().String(), "w0", map[string]Runner{"dtest": dRunner}, opt)
	}()
	_, err = Serve(ln, RunConfig{
		Jobs: []Job{{Kind: "dtest", First: 0, Hosted: 2, Spec: encodeDSpec(2, window, end, 4)}},
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-werr; err != nil {
		t.Fatalf("worker: %v", err)
	}
	time.Sleep(2 * opt.joinTimeout) // past the join deadline
	dialed := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			conn.Close()
		}
		dialed <- err
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatalf("Accept on the caller's listener after Serve: %v", err)
	}
	conn.Close()
	if err := <-dialed; err != nil {
		t.Fatalf("dial: %v", err)
	}
}

// --- failure injection: hand-driven workers in the mesh ---

// manual is a worker the test drives by hand: it speaks the handshake and
// holds its peer links, then misbehaves in a controlled way.
type manual struct {
	coord net.Conn
	ln    net.Listener
	a     assignment
	peers []net.Conn // by worker index; nil at its own
}

// manualWorkers joins one manual worker per name, in order, then links
// each to its peers; real workers joined before them must already be
// running. The connections close when the test ends.
func manualWorkers(t *testing.T, addr string, names ...string) []*manual {
	t.Helper()
	ms := make([]*manual, len(names))
	for i, name := range names {
		coord, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { coord.Close(); ln.Close() })
		if err := wire.WriteFrame(coord, wire.MsgHello, encodeHello(name, ln.Addr().String())); err != nil {
			t.Fatal(err)
		}
		ms[i] = &manual{coord: coord, ln: ln}
	}
	for _, m := range ms {
		_ = m.coord.SetReadDeadline(time.Now().Add(5 * time.Second))
		typ, payload, err := wire.ReadFrame(m.coord, 0)
		if err != nil || typ != wire.MsgJob {
			t.Fatalf("handshake: type %d err %v", typ, err)
		}
		if m.a, err = decodeAssignment(payload); err != nil {
			t.Fatal(err)
		}
		_ = m.coord.SetReadDeadline(time.Time{})
		m.peers = make([]net.Conn, len(m.a.Peers))
	}
	for _, m := range ms {
		for j := m.a.Index + 1; j < len(m.peers); j++ {
			conn, err := net.Dial("tcp", m.a.Peers[j].Addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { conn.Close() })
			if err := wire.WriteFrame(conn, wire.MsgHello, encodeCount(m.a.Index)); err != nil {
				t.Fatal(err)
			}
			m.peers[j] = conn
		}
		for range m.a.Index {
			conn, err := m.ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { conn.Close() })
			_, payload, err := wire.ReadFrame(conn, 0)
			if err != nil {
				t.Fatal(err)
			}
			j, err := decodeCount(payload)
			if err != nil {
				t.Fatal(err)
			}
			m.peers[j] = conn
		}
	}
	return ms
}

// loopWindow is the w-th window exchangeLoop trades, with no events.
func loopWindow(w int) pdes.WindowDone {
	end := des.Time(w+1) * des.Millisecond
	return pdes.WindowDone{Start: end - des.Millisecond, End: end, LocalNext: end}
}

// done writes exchangeLoop's window w to peer j.
func (m *manual) done(t *testing.T, j, w int) {
	t.Helper()
	d := loopWindow(w)
	if err := wire.WriteFrame(m.peers[j], wire.MsgWindowDone, encodeWindowDone(nil, d)); err != nil {
		t.Fatal(err)
	}
}

// heartbeat sends the coordinator one heartbeat reporting sent windows.
func (m *manual) heartbeat(sent int) error {
	return wire.WriteFrame(m.coord, wire.MsgHeartbeat, encodeCount(sent))
}

// keepAlive heartbeats sent windows every 30 ms until the test ends.
func (m *manual) keepAlive(t *testing.T, sent int) {
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		tick := time.NewTicker(30 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if m.heartbeat(sent) != nil {
					return
				}
			}
		}
	}()
}

// exchangeLoop is a runner that trades total empty 1 ms windows through
// the transport, the way pdes.Run would with an event in each.
func exchangeLoop(total int) Runner {
	return func(_ Job, tr pdes.Transport) ([]byte, error) {
		for w := 0; w < total; w++ {
			g, err := tr.Exchange(loopWindow(w))
			if err != nil {
				return nil, err
			}
			if g.Stop {
				break
			}
		}
		return []byte("done"), nil
	}
}

const loopWindows = 10

// serveAsync runs Serve over n single-engine jobs of loopWindows windows
// and returns its error channel.
func serveAsync(ln net.Listener, opt Options, n int) <-chan error {
	var jobs []Job
	for i := 0; i < n; i++ {
		jobs = append(jobs, Job{Kind: "x", First: i, Hosted: 1})
	}
	errc := make(chan error, 1)
	go func() {
		_, err := Serve(ln, RunConfig{Jobs: jobs}, opt)
		errc <- err
	}()
	return errc
}

// notifyListener signals every Accept, so a test can join a real worker
// before a manual one and know their indices.
type notifyListener struct {
	*net.TCPListener
	accepted chan struct{}
}

func (l *notifyListener) Accept() (net.Conn, error) {
	c, err := l.TCPListener.Accept()
	if err == nil {
		l.accepted <- struct{}{}
	}
	return c, err
}

// realThenManual serves two single-engine jobs: worker 0 is a real worker
// named "good" running exchangeLoop, worker 1 the manual one named name. It
// returns Serve's and the real worker's error channels.
func realThenManual(t *testing.T, name string) (*manual, <-chan error, <-chan error) {
	t.Helper()
	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tln.Close() })
	ln := &notifyListener{TCPListener: tln.(*net.TCPListener), accepted: make(chan struct{}, 2)}
	errc := serveAsync(ln, Options{}, 2)
	werr := make(chan error, 1)
	go func() {
		werr <- RunWorker(ln.Addr().String(), "good", map[string]Runner{"x": exchangeLoop(loopWindows)}, Options{})
	}()
	<-ln.accepted
	return manualWorkers(t, ln.Addr().String(), name)[0], errc, werr
}

func expectWorkerError(t *testing.T, err error, wantIdx int, wantName string) *WorkerError {
	t.Helper()
	if err == nil {
		t.Fatal("run unexpectedly succeeded")
	}
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("error is %T (%v), want *WorkerError", err, err)
	}
	if we.Index != wantIdx || we.Name != wantName {
		t.Fatalf("blamed worker %d %q, want %d %q: %v", we.Index, we.Name, wantIdx, wantName, err)
	}
	return we
}

// A corrupt frame on a peer link: the real worker reading it reports the
// sender, and the CRC sentinel survives the trip through the coordinator.
func TestCorruptFrameBlamesWorker(t *testing.T) {
	evil, errc, werr := realThenManual(t, "evil")
	// Build a valid frame, then flip one payload byte: the CRC must catch it.
	frame := wire.AppendFrame(nil, wire.MsgWindowDone, encodeWindowDone(nil, loopWindow(0)))
	frame[len(frame)-6] ^= 0x40
	if _, err := evil.peers[0].Write(frame); err != nil {
		t.Fatal(err)
	}
	err := <-errc
	expectWorkerError(t, err, 1, "evil")
	if !errors.Is(err, wire.ErrCRC) {
		t.Fatalf("want wire.ErrCRC in chain, got %v", err)
	}
	if err := <-werr; err == nil {
		t.Fatal("the worker that read the corrupt frame reported success")
	}
}

// A well-formed peer frame the reader cannot act on — another window, or an
// event dated before the window's end — is its sender's fault too.
func TestHostileWindowFrameBlamesWorker(t *testing.T) {
	early := loopWindow(0)
	early.Events = []wire.Event{{At: 0, Src: 1, Dst: 0, Kind: 1}}
	for _, tc := range []struct {
		name string
		d    pdes.WindowDone
		want string
	}{
		{"another window", loopWindow(1), "arrived at window"},
		{"event before the window end", early, "before the window's end"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			evil, errc, werr := realThenManual(t, "evil")
			if err := wire.WriteFrame(evil.peers[0], wire.MsgWindowDone, encodeWindowDone(nil, tc.d)); err != nil {
				t.Fatal(err)
			}
			err := <-errc
			expectWorkerError(t, err, 1, "evil")
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want %q in the blame, got %v", tc.want, err)
			}
			if err := <-werr; err == nil {
				t.Fatal("the worker that read the frame reported success")
			}
		})
	}
}

func TestTruncatedFrameBlamesWorker(t *testing.T) {
	evil, errc, werr := realThenManual(t, "evil")
	frame := wire.AppendFrame(nil, wire.MsgWindowDone, encodeWindowDone(nil, loopWindow(0)))
	if _, err := evil.peers[0].Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	evil.peers[0].Close()
	err := <-errc
	expectWorkerError(t, err, 1, "evil")
	if !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("want wire.ErrTruncated in chain, got %v", err)
	}
	if err := <-werr; err == nil {
		t.Fatal("the worker that read the truncated frame reported success")
	}
}

// A worker that sends nothing at all is blamed once the coordinator's
// rolling heartbeat deadline runs out.
func TestDeadWorkerBlamedWithinHeartbeatDeadline(t *testing.T) {
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln.Close()
	opt := Options{heartbeatTimeout: 700 * time.Millisecond}
	errc := serveAsync(ln, opt, 2)
	ms := manualWorkers(t, ln.Addr().String(), "good", "dead")
	good := ms[0]
	good.done(t, 1, 0)
	good.keepAlive(t, 1)
	// "dead" sends nothing at all — no heartbeats, no frames. The rolling
	// read deadline must fire within the heartbeat timeout (plus slack).
	start := time.Now()
	err := <-errc
	elapsed := time.Since(start)
	expectWorkerError(t, err, 1, "dead")
	if !strings.Contains(err.Error(), "heartbeat timeout") {
		t.Fatalf("want heartbeat timeout attribution, got %v", err)
	}
	if elapsed > opt.heartbeatTimeout+2*time.Second {
		t.Fatalf("detection took %v, heartbeat timeout is %v", elapsed, opt.heartbeatTimeout)
	}
}

// A stalled worker heartbeats diligently but sends no window — liveness
// alone can't catch it; the windows-sent count in its heartbeats must.
func TestStalledWorkerBlamed(t *testing.T) {
	for _, tc := range []struct {
		name  string
		names []string
	}{
		{"behind a peer", []string{"good", "stalled"}},
		{"alone", []string{"stalled"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, _ := net.Listen("tcp", "127.0.0.1:0")
			defer ln.Close()
			errc := serveAsync(ln, Options{exchangeTimeout: 600 * time.Millisecond}, len(tc.names))
			ms := manualWorkers(t, ln.Addr().String(), tc.names...)
			stalled := ms[len(ms)-1]
			if len(ms) == 2 {
				ms[0].done(t, 1, 0)
				ms[0].keepAlive(t, 1)
			}
			stalled.keepAlive(t, 0)
			err := <-errc
			expectWorkerError(t, err, len(ms)-1, "stalled")
			if !strings.Contains(err.Error(), "stalled") {
				t.Fatalf("want stall attribution, got %v", err)
			}
		})
	}
}

// TestDuplicatedAndDelayedFramesTolerated drives a full two-worker run in
// which the manual worker precedes every window with a burst of duplicate
// heartbeats and a delay well under the timeouts; the run must complete.
func TestDuplicatedAndDelayedFramesTolerated(t *testing.T) {
	tln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer tln.Close()
	ln := &notifyListener{TCPListener: tln.(*net.TCPListener), accepted: make(chan struct{}, 2)}
	const total = 4
	errc := make(chan error, 1)
	resc := make(chan *Result, 1)
	go func() {
		res, err := Serve(ln, RunConfig{
			Jobs: []Job{{Kind: "x", First: 0, Hosted: 1}, {Kind: "x", First: 1, Hosted: 1}},
		}, Options{})
		resc <- res
		errc <- err
	}()
	werr := make(chan error, 1)
	go func() {
		werr <- RunWorker(ln.Addr().String(), "steady", map[string]Runner{"x": exchangeLoop(total)}, Options{})
	}()
	<-ln.accepted
	slow := manualWorkers(t, ln.Addr().String(), "slowpoke")[0]
	for w := 0; w < total; w++ {
		for i := 0; i < 3; i++ { // duplicate keepalives
			if err := slow.heartbeat(w); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(60 * time.Millisecond) // delayed, but within every timeout
		slow.done(t, 0, w)
		_ = slow.peers[0].SetReadDeadline(time.Now().Add(5 * time.Second))
		typ, payload, err := wire.ReadFrame(slow.peers[0], 0)
		if err != nil || typ != wire.MsgWindowDone {
			t.Fatalf("window %d: type %d err %v", w, typ, err)
		}
		d, err := decodeWindowDone(payload)
		if err != nil {
			t.Fatal(err)
		}
		if want := loopWindow(w); d.Start != want.Start || d.End != want.End {
			t.Fatalf("window %d: peer sent window [%v, %v)", w, d.Start, d.End)
		}
	}
	if err := wire.WriteFrame(slow.coord, wire.MsgResult, encodeResult(summary{windows: total}, []byte("done"))); err != nil {
		t.Fatal(err)
	}
	res := <-resc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if err := <-werr; err != nil {
		t.Fatalf("worker: %v", err)
	}
	if res.Windows != total || string(res.Payloads[0]) != "done" || string(res.Payloads[1]) != "done" {
		t.Fatalf("windows=%d payloads=%q", res.Windows, res.Payloads)
	}
}

// Every worker folds the same frames into its summary, so one that reports
// another summary is broken, and Serve names it.
func TestDisagreeingSummaryBlamed(t *testing.T) {
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln.Close()
	errc := serveAsync(ln, Options{}, 3)
	ms := manualWorkers(t, ln.Addr().String(), "a", "liar", "c")
	for i, m := range ms {
		s := summary{windows: loopWindows, busyNS: 7}
		if i == 1 {
			s.busyNS++
		}
		if err := wire.WriteFrame(m.coord, wire.MsgResult, encodeResult(s, nil)); err != nil {
			t.Fatal(err)
		}
	}
	err := <-errc
	expectWorkerError(t, err, 1, "liar")
	if !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("want a summary mismatch, got %v", err)
	}
}
