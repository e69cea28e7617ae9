package agent

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"massf/internal/cluster"
	"massf/internal/des"
	"massf/internal/model"
	"massf/internal/netsim"
	"massf/internal/routing/interdomain"
	"massf/internal/topology"
)

// ingestSim builds a k-engine simulation on the shared test topology.
func ingestSim(t *testing.T, engines int, factor float64, end des.Time) (*netsim.Sim, []model.NodeID) {
	t.Helper()
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 40, Hosts: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	part := make([]int32, len(net.Nodes))
	for i := range part {
		part[i] = int32(i % engines)
	}
	// The window must not exceed the latency of any cut link, so derive it
	// from the topology's minimum link latency.
	window := end
	for i := range net.Links {
		if l := des.Time(net.Links[i].Latency); l < window {
			window = l
		}
	}
	s, err := netsim.New(netsim.Config{
		Net: net, Routes: interdomain.New(net), Part: part, Engines: engines,
		Window: window, End: end,
		Sync: cluster.Fixed{CostNS: 100}, RealTimeFactor: factor,
	})
	if err != nil {
		t.Fatal(err)
	}
	var hosts []model.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			hosts = append(hosts, model.NodeID(i))
		}
	}
	return s, hosts
}

// serveIngest starts an ingest plane on an ephemeral port with a run
// registered, returning the dialable address.
func serveIngest(t *testing.T, g *Ingest, id string, a *Agent, hosts []model.NodeID) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g.Register(id, a, hosts)
	go g.Serve(ln)
	t.Cleanup(func() { g.Close() })
	return ln.Addr().String()
}

func TestIngestEndToEnd(t *testing.T) {
	s, hosts := ingestSim(t, 1, 0, 5*des.Second)
	a := New(s, des.Millisecond)
	g := NewIngest(0)
	addr := serveIngest(t, g, "r0001", a, hosts)

	cl, err := Dial(addr, "r0001", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Hosts() != len(hosts) {
		t.Fatalf("host table %d, want %d", cl.Hosts(), len(hosts))
	}
	if window(cl) != DefaultWindow {
		t.Fatalf("granted window %d, want %d", window(cl), DefaultWindow)
	}
	if err := cl.Listen(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := cl.Send(0, 1, []byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// The sends travel over TCP; wait until the server has parked all of
	// them in the agent inbox before running the (fast) simulation.
	waitFor(t, func() bool { s, _, _, _ := g.Counters(); return s == 10 })
	s.Run()
	got := 0
	deadline := time.After(5 * time.Second)
	for got < 10 {
		select {
		case d, open := <-cl.Deliveries():
			if !open {
				t.Fatalf("connection died after %d deliveries: %v", got, connErr(cl))
			}
			if d.From != 0 || d.To != 1 {
				t.Fatalf("delivery endpoints %d→%d, want 0→1", d.From, d.To)
			}
			if d.DeliveredNS <= d.InjectedNS {
				t.Fatalf("delivery times wrong: %d → %d", d.InjectedNS, d.DeliveredNS)
			}
			got++
		case <-deadline:
			t.Fatalf("only %d/10 deliveries", got)
		}
	}
	sent, bp, delivered, _ := g.Counters()
	if sent != 10 || bp != 0 {
		t.Errorf("sent=%d backpressured=%d, want 10/0", sent, bp)
	}
	if delivered != 10 {
		t.Errorf("delivered=%d, want 10", delivered)
	}
	// Credits returned at injection reopen the window fully.
	waitFor(t, func() bool { return window(cl) == DefaultWindow })
}

// TestIngestGatherMatchesCounters: after a small exchange, the
// massfd_agent_* families the daemon's /metrics exposes carry the values
// Counters returns, beside the live and accepted connection counts.
func TestIngestGatherMatchesCounters(t *testing.T) {
	s, hosts := ingestSim(t, 1, 0, des.Second)
	a := New(s, des.Millisecond)
	g := NewIngest(0)
	addr := serveIngest(t, g, "r0001", a, hosts)
	cl, err := Dial(addr, "r0001", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Listen(1); err != nil {
		t.Fatal(err)
	}
	const msgs = 3
	for i := 0; i < msgs; i++ {
		if err := cl.Send(0, 1, []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { s, _, _, _ := g.Counters(); return s == msgs })
	s.Run()
	deadline := time.After(5 * time.Second)
	for got := 0; got < msgs; got++ {
		select {
		case _, open := <-cl.Deliveries():
			if !open {
				t.Fatalf("connection died after %d deliveries: %v", got, connErr(cl))
			}
		case <-deadline:
			t.Fatalf("only %d/%d deliveries", got, msgs)
		}
	}
	sent, bp, delivered, dropped := g.Counters()
	if sent != msgs || delivered != msgs {
		t.Fatalf("sent=%d delivered=%d, want %d/%d", sent, delivered, msgs, msgs)
	}
	want := map[string]float64{
		"massfd_agent_conns":               1,
		"massfd_agent_accepted_total":      1,
		"massfd_agent_sent_total":          float64(sent),
		"massfd_agent_backpressured_total": float64(bp),
		"massfd_agent_delivered_total":     float64(delivered),
		"massfd_agent_dropped_total":       float64(dropped),
	}
	pts := g.Gather()
	if len(pts) != len(want) {
		t.Fatalf("Gather returned %d families, want %d: %+v", len(pts), len(want), pts)
	}
	for _, p := range pts {
		v, ok := want[p.Name]
		if !ok || p.Value != v {
			t.Errorf("%s = %g, want %g (known family %v)", p.Name, p.Value, v, ok)
		}
		kind := "counter"
		if p.Name == "massfd_agent_conns" {
			kind = "gauge"
		}
		if p.Kind != kind {
			t.Errorf("%s has kind %q, want %q", p.Name, p.Kind, kind)
		}
	}
}

// window reads cl's open send window under its lock.
func window(cl *Client) int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.credits
}

// connErr reads cl's terminal connection error under its lock.
func connErr(cl *Client) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.err
}

func TestIngestAttachUnknownRun(t *testing.T) {
	s, hosts := ingestSim(t, 1, 0, des.Second)
	a := New(s, des.Millisecond)
	g := NewIngest(0)
	addr := serveIngest(t, g, "r0001", a, hosts)
	if _, err := Dial(addr, "r9999", 0); err == nil {
		t.Fatal("attach to unknown run succeeded")
	}
}

// TestIngestBackpressure pins the send-window contract: a sender that
// outruns injection sees its window close (Send would block locally;
// overruns at the server are counted, not buffered), and a slow consumer
// sheds deliveries without stalling the simulation or its neighbors.
func TestIngestBackpressure(t *testing.T) {
	s, hosts := ingestSim(t, 1, 0, 5*des.Second)
	a := New(s, des.Millisecond)
	g := NewIngest(4) // tiny window to close it quickly
	addr := serveIngest(t, g, "r0001", a, hosts)

	slow, err := Dial(addr, "r0001", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fast, err := Dial(addr, "r0001", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	if window(slow) != 4 {
		t.Fatalf("window %d, want 4", window(slow))
	}
	// The slow consumer subscribes but never drains its deliveries.
	if err := slow.Listen(2); err != nil {
		t.Fatal(err)
	}
	// No pump epochs have run yet, so nothing is injected and no credits
	// come back: the 5th send must be refused by the closed window.
	for i := 0; i < 4; i++ {
		if err := slow.Send(0, 2, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { s, _, _, _ := g.Counters(); return s == 4 })
	if w := window(slow); w != 0 {
		t.Fatalf("window after 4 sends = %d, want closed", w)
	}
	// The other connection's window is independent — it can still send.
	if w := window(fast); w != 4 {
		t.Fatalf("independent window = %d, want 4", w)
	}
	if err := fast.Send(1, 3, []byte("y")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { s, _, _, _ := g.Counters(); return s == 5 })

	s.Run() // injects everything queued; credits return

	waitFor(t, func() bool { return window(slow) == 4 })
	sent, bp, _, dropped := g.Counters()
	if sent != 5 {
		t.Errorf("sent=%d, want 5", sent)
	}
	if bp != 0 {
		t.Errorf("backpressured=%d, want 0 (client stopped at the window)", bp)
	}
	_ = dropped // the slow consumer's losses are timing-dependent; counted, never blocking
}

// TestIngestDeterminism is the N=1 ≡ N=k conformance check with a live
// agent attached: the same per-connection message streams injected
// through the wire protocol produce byte-identical outcomes on 1 and 4
// engines, lagging consumer included (its drops happen at the delivery
// boundary, outside the simulation).
func TestIngestDeterminism(t *testing.T) {
	// The comparable outcome is the observable network semantics (flows,
	// bytes, drops, retransmits) — raw kernel event counts include
	// cross-engine hop bookkeeping that scales with k by construction.
	type golden struct {
		flows     int
		delivered uint64
		dropped   uint64
		rexmit    uint64
	}
	run := func(engines int) golden {
		s, hosts := ingestSim(t, engines, 0, 5*des.Second)
		a := New(s, des.Millisecond)
		g := NewIngest(0)
		addr := serveIngest(t, g, "run", a, hosts)
		// Two connections with interleaved streams; a lagging listener
		// that refuses every delivery rides along.
		c1, err := Dial(addr, "run", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c1.Close()
		c2, err := Dial(addr, "run", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c2.Close()
		a.Listen(hosts[5], func(Message) bool { return false }) // lagging consumer
		for i := 0; i < 16; i++ {
			if err := c1.Send(0, 5, []byte(fmt.Sprintf("a-%d", i))); err != nil {
				t.Fatal(err)
			}
			if err := c2.Send(1, 4, []byte(fmt.Sprintf("b-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		// Wait until every send is parked in the agent inbox, so both
		// engine counts inject the identical epoch batch.
		waitFor(t, func() bool {
			c := a.Counters()
			return c.Sent == 32
		})
		res := s.Run()
		return golden{
			flows: res.FlowsCompleted, delivered: res.DeliveredBits,
			dropped: res.Dropped, rexmit: res.Retransmissions,
		}
	}
	g1 := run(1)
	g4 := run(4)
	if g1 != g4 {
		t.Fatalf("N=1 %+v != N=4 %+v", g1, g4)
	}
}

// TestIngestManyConnections drives one paced run from 128 connections
// through a small credit window and checks the books by count alone:
// every message sent is accepted exactly once and then either delivered or
// dropped, no Send fails, and Close leaves no connection or goroutine
// behind.
func TestIngestManyConnections(t *testing.T) {
	const conns, window, perConn = 128, 4, 16
	goroutines := runtime.NumGoroutine()
	s, hosts := ingestSim(t, 2, 1, 600*des.Second)
	a := New(s, des.Millisecond)
	g := NewIngest(window)
	addr := serveIngest(t, g, "run", a, hosts)

	clients := make([]*Client, conns)
	for i := range clients {
		cl, err := Dial(addr, "run", 0)
		if err != nil {
			t.Fatal(err)
		}
		// One listener per host, so every destination has a sink and each
		// message ends up in the plane's delivered or dropped count.
		if i < len(hosts) {
			if err := cl.Listen(i); err != nil {
				t.Fatal(err)
			}
		}
		clients[i] = cl
	}
	if got := g.Conns(); got != conns {
		t.Fatalf("%d connections attached, want %d", got, conns)
	}
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			from := i % len(hosts)
			for n := 0; n < perConn; n++ {
				to := (from + 1 + n%(len(hosts)-1)) % len(hosts) // never from itself
				if err := cl.Send(from, to, []byte("payload")); err != nil {
					t.Errorf("conn %d send %d: %v", i, n, err)
					return
				}
			}
		}(i, cl)
	}
	// No pump epoch has run, so every sender is now blocked on its closed
	// window; a connection's Listen precedes its sends on the same socket,
	// so all sinks are in place before the first injection.
	waitFor(t, func() bool { sent, _, _, _ := g.Counters(); return sent == conns*window })
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run()
	}()
	wg.Wait()
	waitFor(t, func() bool {
		_, _, delivered, dropped := g.Counters()
		return delivered+dropped == conns*perConn
	})
	s.Stop()
	<-done
	if sent, bp, _, _ := g.Counters(); sent != conns*perConn || bp != 0 {
		t.Errorf("sent=%d backpressured=%d, want %d/0", sent, bp, conns*perConn)
	}

	for _, cl := range clients {
		cl.Close()
	}
	g.Close()
	if got := g.Conns(); got != 0 {
		t.Errorf("%d connections left after Close", got)
	}
	// Each side's per-connection goroutine sees its socket close and exits.
	waitFor(t, func() bool { return runtime.NumGoroutine() <= goroutines })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
