package dist

import (
	"errors"
	"fmt"
	"net"
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

func encodeDSpec(engines int, window, end des.Time, seed int64, ttl int) []byte {
	var b wire.Buffer
	b.U32(uint32(engines))
	b.I64(int64(window))
	b.I64(int64(end))
	b.I64(seed)
	b.U32(uint32(ttl))
	return b.B
}

func buildDModel(spec []byte, transport pdes.Transport, first, hosted int) (*dModel, error) {
	r := wire.NewReader(spec)
	n := int(r.U32())
	window := des.Time(r.I64())
	end := des.Time(r.I64())
	seed := r.I64()
	ttl := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	m := &dModel{n: n, window: window, counts: make([]uint64, n), sums: make([]uint64, n)}
	cfg := pdes.Config{Engines: n, Window: window, End: end, Seed: seed}
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

func fastOpts() Options {
	return Options{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  700 * time.Millisecond,
		ExchangeTimeout:   5 * time.Second,
		DialTimeout:       5 * time.Second,
		JoinTimeout:       5 * time.Second,
	}
}

func TestLoopbackDistributedRun(t *testing.T) {
	const engines = 8
	window := des.Millisecond
	end := 40 * des.Millisecond
	spec := encodeDSpec(engines, window, end, 11, 10)

	ref, err := buildDModel(spec, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	refStats := ref.sim.Run()
	if refStats.TotalEvents == 0 || refStats.RemoteEvents == 0 {
		t.Fatalf("degenerate reference: %+v", refStats)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	opt := fastOpts()
	jobs := []Job{
		{Kind: "dtest", First: 0, Hosted: 3, Spec: spec},
		{Kind: "dtest", First: 3, Hosted: 5, Spec: spec},
	}
	runners := map[string]Runner{"dtest": dRunner}
	werrs := make(chan error, len(jobs))
	for j := range jobs {
		j := j
		go func() {
			werrs <- RunWorker(ln.Addr().String(), fmt.Sprintf("w%d", j), runners, opt)
		}()
	}
	res, err := Serve(ln, RunConfig{
		Jobs: jobs, WindowNS: int64(window),
		TotalWindows: pdes.WindowCount(end, window),
	}, opt)
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
		t.Errorf("coordinator counted %d windows, reference %d", res.Windows, refStats.Windows)
	}
	if res.ModeledBusyNS != refStats.ModeledBusyNS {
		t.Errorf("global modeled busy %d, reference %d", res.ModeledBusyNS, refStats.ModeledBusyNS)
	}
}

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
	opt := fastOpts()
	opt.JoinTimeout = 50 * time.Millisecond
	werr := make(chan error, 1)
	go func() {
		werr <- RunWorker(ln.Addr().String(), "w0", map[string]Runner{"dtest": dRunner}, opt)
	}()
	_, err = Serve(ln, RunConfig{
		Jobs:     []Job{{Kind: "dtest", First: 0, Hosted: 2, Spec: encodeDSpec(2, window, end, 3, 4)}},
		WindowNS: int64(window), TotalWindows: pdes.WindowCount(end, window),
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-werr; err != nil {
		t.Fatalf("worker: %v", err)
	}
	time.Sleep(2 * opt.JoinTimeout) // past the join deadline
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

// manualWorker handshakes like a real worker and hands the raw connection
// to the test, which then misbehaves in a controlled way.
func manualWorker(t *testing.T, addr, name string) (net.Conn, Job) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.MsgHello, encodeHello(name)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := wire.ReadFrame(conn, 0)
	if err != nil || typ != wire.MsgJob {
		t.Fatalf("handshake: type %d err %v", typ, err)
	}
	job, err := decodeJob(payload)
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	return conn, job
}

// serveAsync runs Serve with two single-engine jobs and returns the error
// channel; tests connect worker 0 (well-behaved) first, then worker 1 (the
// misbehaving one), so attribution is deterministic.
func serveAsync(t *testing.T, ln net.Listener, opt Options) <-chan error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := Serve(ln, RunConfig{
			Jobs: []Job{
				{Kind: "x", First: 0, Hosted: 1},
				{Kind: "x", First: 1, Hosted: 1},
			},
			WindowNS: int64(des.Millisecond), TotalWindows: 10,
		}, opt)
		errc <- err
	}()
	return errc
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

// goodDone writes a valid WindowDone for window w with no events.
func goodDone(t *testing.T, conn net.Conn, w int, window des.Time) {
	t.Helper()
	d := pdes.WindowDone{Window: w, LocalNext: des.Time(w+1) * window}
	if err := wire.WriteFrame(conn, wire.MsgWindowDone, encodeWindowDone(nil, d)); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptFrameBlamesWorker(t *testing.T) {
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln.Close()
	opt := fastOpts()
	errc := serveAsync(t, ln, opt)
	good, _ := manualWorker(t, ln.Addr().String(), "good")
	defer good.Close()
	evil, _ := manualWorker(t, ln.Addr().String(), "evil")
	defer evil.Close()

	goodDone(t, good, 0, des.Millisecond)
	// Build a valid frame, then flip one payload byte: the CRC must catch it.
	frame := captureFrame(t, wire.MsgWindowDone, encodeWindowDone(nil, pdes.WindowDone{Window: 0}))
	frame[len(frame)-6] ^= 0x40
	if _, err := evil.Write(frame); err != nil {
		t.Fatal(err)
	}
	err := <-errc
	expectWorkerError(t, err, 1, "evil")
	if !errors.Is(err, wire.ErrCRC) {
		t.Fatalf("want wire.ErrCRC in chain, got %v", err)
	}
}

func TestTruncatedFrameBlamesWorker(t *testing.T) {
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln.Close()
	opt := fastOpts()
	errc := serveAsync(t, ln, opt)
	good, _ := manualWorker(t, ln.Addr().String(), "good")
	defer good.Close()
	evil, _ := manualWorker(t, ln.Addr().String(), "evil")

	goodDone(t, good, 0, des.Millisecond)
	frame := captureFrame(t, wire.MsgWindowDone, encodeWindowDone(nil, pdes.WindowDone{Window: 0}))
	if _, err := evil.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	evil.Close()
	err := <-errc
	expectWorkerError(t, err, 1, "evil")
	if !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("want wire.ErrTruncated in chain, got %v", err)
	}
}

func TestDeadWorkerBlamedWithinHeartbeatTimeout(t *testing.T) {
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln.Close()
	opt := fastOpts()
	errc := serveAsync(t, ln, opt)
	good, _ := manualWorker(t, ln.Addr().String(), "good")
	defer good.Close()
	dead, _ := manualWorker(t, ln.Addr().String(), "dead")
	defer dead.Close()

	goodDone(t, good, 0, des.Millisecond)
	// "dead" sends nothing at all — no heartbeats, no frames. The rolling
	// read deadline must fire within the heartbeat timeout (plus slack).
	start := time.Now()
	err := <-errc
	elapsed := time.Since(start)
	expectWorkerError(t, err, 1, "dead")
	if !strings.Contains(err.Error(), "heartbeat timeout") {
		t.Fatalf("want heartbeat timeout attribution, got %v", err)
	}
	if elapsed > opt.HeartbeatTimeout+2*time.Second {
		t.Fatalf("detection took %v, heartbeat timeout is %v", elapsed, opt.HeartbeatTimeout)
	}
}

func TestStalledWorkerBlamed(t *testing.T) {
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln.Close()
	opt := fastOpts()
	opt.ExchangeTimeout = 600 * time.Millisecond
	errc := serveAsync(t, ln, opt)
	good, _ := manualWorker(t, ln.Addr().String(), "good")
	defer good.Close()
	stalled, _ := manualWorker(t, ln.Addr().String(), "stalled")
	defer stalled.Close()

	goodDone(t, good, 0, des.Millisecond)
	// "stalled" heartbeats diligently but never arrives at the barrier —
	// liveness alone can't catch it; the protocol-progress timeout must.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(30 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if wire.WriteFrame(stalled, wire.MsgHeartbeat, nil) != nil {
					return
				}
			}
		}
	}()
	err := <-errc
	expectWorkerError(t, err, 1, "stalled")
	if !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("want stall attribution, got %v", err)
	}
}

// TestDuplicatedAndDelayedFramesTolerated drives a full single-worker run
// where every window's arrival is preceded by a burst of duplicate
// heartbeats and a delay well under the timeouts; the run must complete.
func TestDuplicatedAndDelayedFramesTolerated(t *testing.T) {
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln.Close()
	opt := fastOpts()
	const total = 4
	errc := make(chan error, 1)
	resc := make(chan *Result, 1)
	go func() {
		res, err := Serve(ln, RunConfig{
			Jobs:     []Job{{Kind: "x", First: 0, Hosted: 2}},
			WindowNS: int64(des.Millisecond), TotalWindows: total,
		}, opt)
		resc <- res
		errc <- err
	}()
	conn, _ := manualWorker(t, ln.Addr().String(), "slowpoke")
	defer conn.Close()
	for w := 0; w < total; w++ {
		for i := 0; i < 3; i++ { // duplicate keepalives
			if err := wire.WriteFrame(conn, wire.MsgHeartbeat, nil); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(60 * time.Millisecond) // delayed, but within every timeout
		goodDone(t, conn, w, des.Millisecond)
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		typ, payload, err := wire.ReadFrame(conn, 0)
		if err != nil || typ != wire.MsgWindowGo {
			t.Fatalf("window %d: type %d err %v", w, typ, err)
		}
		g, err := decodeWindowGo(payload)
		if err != nil {
			t.Fatal(err)
		}
		if g.NextWindow != w+1 {
			t.Fatalf("window %d: next %d", w, g.NextWindow)
		}
	}
	if err := wire.WriteFrame(conn, wire.MsgResult, []byte("done")); err != nil {
		t.Fatal(err)
	}
	res := <-resc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if res.Windows != total || string(res.Payloads[0]) != "done" {
		t.Fatalf("windows=%d payload=%q", res.Windows, res.Payloads[0])
	}
}

// captureFrame renders one frame to bytes.
func captureFrame(t *testing.T, typ byte, payload []byte) []byte {
	t.Helper()
	var buf frameBuf
	if err := wire.WriteFrame(&buf, typ, payload); err != nil {
		t.Fatal(err)
	}
	return buf.b
}

type frameBuf struct{ b []byte }

func (f *frameBuf) Write(p []byte) (int, error) {
	f.b = append(f.b, p...)
	return len(p), nil
}
