// Online simulation: live application goroutines exchange real messages
// through the simulated network — the paper's Agent + WrapSocket
// capability. The simulation is paced against the wall clock (here 20× the
// paper's real-time mode so the demo finishes quickly), and the live
// client measures wall-clock round-trip times that track the simulated
// network's latencies.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"massf/internal/agent"
	"massf/internal/des"
	"massf/internal/experiments"
	"massf/internal/model"
	"massf/internal/runspec"
)

func main() {
	sc := experiments.Scenario{
		Flat: &experiments.FlatSpec{Routers: 120, Hosts: 10},
		// 0.05 wall seconds per simulated second (the paper runs factor 1.0
		// for real time or 8.0 when the network is too large).
		RunSpec: runspec.RunSpec{Engines: 2, Seconds: 3, Seed: 33, RealTimeFactor: 0.05},
	}
	sc.Normalize()
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}
	net, multi, err := sc.Network()
	if err != nil {
		log.Fatal(err)
	}
	st, err := sc.Build(net, multi, experiments.Exec{})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	prof, err := sc.TrafficProfile(ctx, st)
	if err != nil {
		log.Fatal(err)
	}
	mapping, err := sc.Map(st, prof)
	if err != nil {
		log.Fatal(err)
	}
	p, err := sc.Prepare(st, mapping, nil, experiments.Exec{})
	if err != nil {
		log.Fatal(err)
	}

	// The Agent is the live-traffic boundary: message injection and
	// delivery between hosts addressed by node id. It attaches between
	// Prepare and Run. Each host's sink offers its deliveries to a channel
	// and refuses one (counted dropped) when the channel is full, so a slow
	// live goroutine never stalls the simulation.
	client, server := st.Hosts[0], st.Hosts[len(st.Hosts)-1]
	ag := agent.New(p.Sim, 5*des.Millisecond)
	listen := func(n model.NodeID) chan agent.Message {
		ch := make(chan agent.Message, 16)
		ag.Listen(n, func(m agent.Message) bool {
			select {
			case ch <- m:
				return true
			default:
				return false
			}
		})
		return ch
	}
	clientIn, serverIn := listen(client), listen(server)

	var wg sync.WaitGroup
	wg.Add(2)
	// Live echo server.
	go func() {
		defer wg.Done()
		for m := range serverIn {
			ag.Send(m.To, m.From, m.Payload) // echo back
		}
	}()
	// Live client: ping until the simulation horizon.
	go func() {
		defer wg.Done()
		ag.Send(client, server, []byte("ping 0"))
		n := 0
		start := time.Now()
		for m := range clientIn {
			n++
			fmt.Printf("live rtt #%d: wall %v  (sim inject %v → deliver %v)\n",
				n, time.Since(start).Round(time.Millisecond), m.InjectedAt, m.DeliveredAt)
			start = time.Now()
			ag.Send(m.To, m.From, []byte(fmt.Sprintf("ping %d", n)))
		}
	}()

	p.Run(ctx)
	// The horizon passed, so no sink sends again: close the channels to
	// release the live goroutines.
	close(clientIn)
	close(serverIn)
	wg.Wait()
	c := ag.Counters()
	fmt.Printf("agent: %d live messages sent, %d delivered, %d dropped\n", c.Sent, c.Delivered, c.Dropped)
}
