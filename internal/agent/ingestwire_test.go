package agent

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"massf/internal/des"
	"massf/internal/wire"
)

// TestIngestCoalescedSendsArriveIntact drives the batching writers with
// distinct payloads while other sends are in flight: four connections
// send thousands of messages each, never blocking on credits, so frames
// pile up in the client's pending batch while its writer's previous
// batch is still being written. A batch corrupted by that handoff resets
// its connection on a CRC mismatch and leaves the server's sent count
// short; a payload mangled in flight shows up in the byte-exact check.
func TestIngestCoalescedSendsArriveIntact(t *testing.T) {
	const conns, perConn = 4, 2500
	s, hosts := ingestSim(t, 2, 0, 20*des.Second)
	a := New(s, des.Millisecond)
	g := NewIngest(perConn) // no Send ever waits for a credit
	addr := serveIngest(t, g, "run", a, hosts)

	var mu sync.Mutex
	got := make(map[string]int)
	for _, h := range hosts {
		a.Listen(h, func(m Message) bool {
			mu.Lock()
			got[string(m.Payload)]++
			mu.Unlock()
			return true
		})
	}
	// payload encodes (connection, sequence) and varies in length, so a
	// frame boundary that slips inside a batch cannot go unnoticed.
	payload := func(c, n int) []byte {
		p := binary.LittleEndian.AppendUint32(nil, uint32(c))
		p = binary.LittleEndian.AppendUint32(p, uint32(n))
		return append(p, bytes.Repeat([]byte{byte(c*31 + n)}, n%97)...)
	}

	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		cl, err := Dial(addr, "run", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(c int, cl *Client) {
			defer wg.Done()
			for n := 0; n < perConn; n++ {
				to := (c + 1 + n%(len(hosts)-1)) % len(hosts)
				if err := cl.Send(c, to, payload(c, n)); err != nil {
					t.Errorf("conn %d send %d: %v", c, n, err)
					return
				}
			}
		}(c, cl)
	}
	wg.Wait()
	waitFor(t, func() bool { sent, _, _, _ := g.Counters(); return sent == conns*perConn })
	s.Run()

	if _, bp, _, _ := g.Counters(); bp != 0 {
		t.Errorf("backpressured=%d, want 0", bp)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != conns*perConn {
		t.Errorf("%d distinct payloads delivered, want %d", len(got), conns*perConn)
	}
	for c := 0; c < conns; c++ {
		for n := 0; n < perConn; n++ {
			if k := got[string(payload(c, n))]; k != 1 {
				t.Fatalf("conn %d message %d delivered %d times, want once", c, n, k)
			}
		}
	}
}

// TestIngestLargeFrame sends one message larger than the frame readers'
// buffer (and than a writer's batch) and gets it back byte-exact through
// both directions of the wire.
func TestIngestLargeFrame(t *testing.T) {
	s, hosts := ingestSim(t, 1, 0, 20*des.Second)
	a := New(s, des.Millisecond)
	g := NewIngest(0)
	addr := serveIngest(t, g, "run", a, hosts)
	cl, err := Dial(addr, "run", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	big := make([]byte, 200<<10)
	for i := range big {
		big[i] = byte(i * 7 / 5)
	}
	if len(big) <= readBuffer || len(big) >= maxIngestFrame {
		t.Fatalf("payload %d B must exceed the read buffer and fit a frame", len(big))
	}
	if err := cl.Listen(3); err != nil {
		t.Fatal(err)
	}
	if err := cl.Send(0, 3, big); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { sent, _, _, _ := g.Counters(); return sent == 1 })
	s.Run()
	select {
	case d, open := <-cl.Deliveries():
		if !open {
			t.Fatalf("connection died: %v", connErr(cl))
		}
		if d.From != 0 || d.To != 3 || !bytes.Equal(d.Payload, big) {
			t.Fatalf("delivery %d→%d with %d B, want 0→3 with the %d B sent intact",
				d.From, d.To, len(d.Payload), len(big))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}
}

// TestIngestCorruptFrameDropsOnlyItsConnection writes raw frames, one per
// write: a valid send is counted, a send with a broken CRC resets that
// connection alone, and a second client's sends are all counted.
func TestIngestCorruptFrameDropsOnlyItsConnection(t *testing.T) {
	s, hosts := ingestSim(t, 1, 0, des.Second)
	a := New(s, des.Millisecond)
	g := NewIngest(0)
	addr := serveIngest(t, g, "run", a, hosts)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var b wire.Buffer
	b.String("run")
	b.U32(0)
	if err := wire.WriteFrame(raw, MsgAttach, b.B); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(raw, maxIngestFrame); err != nil || typ != MsgAttachOK {
		t.Fatalf("attach: type 0x%02x, %v", typ, err)
	}
	cl, err := Dial(addr, "run", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if n := g.Conns(); n != 2 {
		t.Fatalf("%d connections, want 2", n)
	}

	send := func() []byte {
		var p wire.Buffer
		p.U32(0)
		p.U32(1)
		p.Bytes([]byte("raw"))
		var f bytes.Buffer
		wire.WriteFrame(&f, MsgSend, p.B)
		return f.Bytes()
	}
	if _, err := raw.Write(send()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { sent, _, _, _ := g.Counters(); return sent == 1 })
	bad := send()
	bad[len(bad)-1] ^= 0xff
	if _, err := raw.Write(bad); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return g.Conns() == 1 })
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Error("corrupt connection still open")
	}

	const n = 100
	for i := 0; i < n; i++ {
		if err := cl.Send(2, 3, []byte(fmt.Sprintf("ok-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { sent, _, _, _ := g.Counters(); return sent == 1+n })
	if n := g.Conns(); n != 1 {
		t.Errorf("%d connections, want 1", n)
	}
}

// TestIngestCloseFlushes pins the Close contract: every Send that returned
// before Close reaches the server, even with Close called at once.
func TestIngestCloseFlushes(t *testing.T) {
	const n = 500
	s, hosts := ingestSim(t, 1, 0, des.Second)
	a := New(s, des.Millisecond)
	g := NewIngest(n)
	addr := serveIngest(t, g, "run", a, hosts)
	cl, err := Dial(addr, "run", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := cl.Send(i%len(hosts), (i+1)%len(hosts), []byte("last words")); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { sent, _, _, _ := g.Counters(); return sent == n })
	if err := cl.Send(0, 1, nil); !errors.Is(err, ErrIngestClosed) {
		t.Errorf("Send after Close: %v, want ErrIngestClosed", err)
	}
}

// TestIngestCloseStalledPeer: a peer that stops reading cannot hang Close;
// the flush gives up after closeFlush.
func TestIngestCloseStalledPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		c.(*net.TCPConn).SetReadBuffer(4 << 10)
		wire.ReadFrame(c, maxIngestFrame)
		var b wire.Buffer
		b.String("run")
		b.U32(8)       // hosts
		b.U32(1 << 20) // a window no Send will close
		wire.WriteFrame(c, MsgAttachOK, b.B)
		accepted <- c // and never read again
	}()
	cl, err := Dial(ln.Addr().String(), "run", 0)
	if err != nil {
		t.Fatal(err)
	}
	peer := <-accepted
	defer peer.Close()
	cl.c.(*net.TCPConn).SetWriteBuffer(4 << 10)
	payload := make([]byte, 64<<10)
	for i := 0; i < 64; i++ { // 4 MiB, far beyond both socket buffers
		if err := cl.Send(0, 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	cl.Close()
	if d := time.Since(start); d > closeFlush+2*time.Second {
		t.Errorf("Close took %v against a stalled peer, want about %v", d, closeFlush)
	}
}

// TestIngestStalledListenerBounded: a connection that listens and then
// never reads holds at most outBudget plus one frame of deliveries in its
// outbox, sheds the rest (counted), and costs another client none of its
// sends; Ingest.Close, which waits for every connection's writer, still
// returns while that writer is stuck in a Write.
func TestIngestStalledListenerBounded(t *testing.T) {
	s, hosts := ingestSim(t, 1, 1, 600*des.Second)
	a := New(s, des.Millisecond)
	g := NewIngest(0)
	addr := serveIngest(t, g, "run", a, hosts)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.(*net.TCPConn).SetReadBuffer(4 << 10)
	var b wire.Buffer
	b.String("run")
	b.U32(0)
	if err := wire.WriteFrame(raw, MsgAttach, b.B); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(raw, maxIngestFrame); err != nil || typ != MsgAttachOK {
		t.Fatalf("attach: type 0x%02x, %v", typ, err)
	}
	b.B = b.B[:0]
	b.U32(3)
	if err := wire.WriteFrame(raw, MsgListen, b.B); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.sinks[hosts[3]] != nil
	})
	g.mu.Lock()
	var stalled *ingestConn
	for ic := range g.conns {
		stalled = ic
	}
	g.mu.Unlock()
	pending := func() int {
		stalled.ob.mu.Lock()
		defer stalled.ob.mu.Unlock()
		return len(stalled.ob.pending)
	}

	cl, err := Dial(addr, "run", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run()
	}()
	payload := make([]byte, 32<<10)
	frame := len(wire.AppendFrame(nil, MsgDeliver, make([]byte, 4+4+8+8+4+len(payload))))
	most, sent := 0, 0
	waitFor(t, func() bool {
		for i := 0; i < 32; i++ {
			if err := cl.Send(0, 3, payload); err != nil {
				t.Fatal(err)
			}
			sent++
			most = max(most, pending())
		}
		_, _, _, dropped := g.Counters()
		return dropped > 0
	})
	if most > outBudget+frame {
		t.Errorf("%d B pending on the stalled connection, want at most %d + %d", most, outBudget, frame)
	}
	waitFor(t, func() bool { n, _, _, _ := g.Counters(); return n == uint64(sent) })
	s.Stop()
	<-done

	closed := make(chan struct{})
	go func() {
		g.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Ingest.Close hung on a connection whose writer is stuck")
	}
}
