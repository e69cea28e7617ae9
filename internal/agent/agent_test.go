package agent

import (
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

// liveSim builds a small network simulation suitable for live traffic:
// paced at the given real-time factor.
func liveSim(t *testing.T, factor float64, end des.Time) (*netsim.Sim, []model.NodeID) {
	t.Helper()
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 40, Hosts: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s, err := netsim.New(netsim.Config{
		Net: net, Routes: interdomain.New(net), Engines: 1,
		Window: 10 * des.Millisecond, End: end,
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

// listenChan registers a sink on host n that offers each delivery to a
// buffered channel and refuses it when the channel is full.
func listenChan(a *Agent, n model.NodeID, buffer int) chan Message {
	ch := make(chan Message, buffer)
	a.Listen(n, func(m Message) bool {
		select {
		case ch <- m:
			return true
		default:
			return false
		}
	})
	return ch
}

func TestLiveMessageDelivery(t *testing.T) {
	s, hosts := liveSim(t, 0, 5*des.Second)
	a := New(s, des.Millisecond)
	in := listenChan(a, hosts[1], 8)
	// Queue before Run: injected at the first pump.
	a.Send(hosts[0], hosts[1], []byte("hello grid"))
	s.Run()
	select {
	case m := <-in:
		if string(m.Payload) != "hello grid" {
			t.Errorf("payload = %q", m.Payload)
		}
		if m.DeliveredAt <= m.InjectedAt {
			t.Errorf("delivery times wrong: %v → %v", m.InjectedAt, m.DeliveredAt)
		}
	default:
		t.Fatal("message not delivered")
	}
	if c := a.Counters(); c.Sent != 1 || c.Delivered != 1 || c.Dropped != 0 {
		t.Errorf("counters = %d/%d/%d", c.Sent, c.Delivered, c.Dropped)
	}
}

func TestLiveInteractionDuringRun(t *testing.T) {
	// A live goroutine ping-pongs with an echo goroutine while the
	// simulation runs in (scaled) real time: 1 simulated second = 50 ms
	// wall.
	s, hosts := liveSim(t, 0.05, 10*des.Second)
	a := New(s, 5*des.Millisecond)
	client, server := hosts[0], hosts[3]
	clientIn := listenChan(a, client, 8)
	serverIn := listenChan(a, server, 8)

	var wg sync.WaitGroup
	wg.Add(2)
	const rounds = 3
	go func() { // echo server
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			m, ok := <-serverIn
			if !ok {
				return
			}
			a.Send(server, client, m.Payload)
		}
	}()
	received := 0
	go func() { // client
		defer wg.Done()
		a.Send(client, server, []byte("ping"))
		for i := 0; i < rounds; i++ {
			_, ok := <-clientIn
			if !ok {
				return
			}
			received++
			if i+1 < rounds {
				a.Send(client, server, []byte("ping"))
			}
		}
	}()
	s.Run()
	// The run is over, so no sink sends again: close the channels to
	// release blocked goroutines.
	close(clientIn)
	close(serverIn)
	wg.Wait()
	if received == 0 {
		t.Fatal("no live round trips completed")
	}
}

func TestRealTimePacing(t *testing.T) {
	// 1 simulated second at factor 0.05 must take ≥ ~50 ms of wall time.
	s, _ := liveSim(t, 0.05, des.Second)
	New(s, 10*des.Millisecond) // agent pumps keep every window non-idle
	start := time.Now()
	s.Run()
	if el := time.Since(start); el < 40*time.Millisecond {
		t.Errorf("paced run finished in %v, want ≥ 40ms", el)
	}
}

func TestDropWhenNoListener(t *testing.T) {
	s, hosts := liveSim(t, 0, 2*des.Second)
	a := New(s, des.Millisecond)
	a.Send(hosts[0], hosts[1], []byte("void"))
	s.Run()
	if dropped := a.Counters().Dropped; dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
}

func TestDropWhenListenerFull(t *testing.T) {
	s, hosts := liveSim(t, 0, 3*des.Second)
	a := New(s, des.Millisecond)
	listenChan(a, hosts[1], 1)
	for i := 0; i < 5; i++ {
		a.Send(hosts[0], hosts[1], []byte{byte(i)})
	}
	s.Run()
	c := a.Counters()
	if c.Delivered != 1 {
		t.Errorf("delivered = %d, want 1 (buffer size)", c.Delivered)
	}
	if c.Dropped != 4 {
		t.Errorf("dropped = %d, want 4", c.Dropped)
	}
}
