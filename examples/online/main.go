// Online simulation: live application goroutines exchange real messages
// through the simulated network — the paper's Agent + WrapSocket
// capability. The simulation is paced against the wall clock (here 20× the
// paper's real-time mode so the demo finishes quickly), and the live
// client measures wall-clock round-trip times that track the simulated
// network's latencies.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"massf/internal/agent"
	"massf/internal/des"
	"massf/internal/model"
	"massf/internal/netsim"
	"massf/internal/routing/interdomain"
	"massf/internal/topology"
)

func main() {
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 120, Hosts: 10, Seed: 33})
	if err != nil {
		log.Fatal(err)
	}
	routes := interdomain.New(net)
	var hosts []model.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			hosts = append(hosts, model.NodeID(i))
		}
	}

	const (
		horizon = 3 * des.Second
		// 0.05 wall seconds per simulated second (the paper runs factor
		// 1.0 for real time or 8.0 when the network is too large).
		pace = 0.05
	)
	sim, err := netsim.New(netsim.Config{
		Net: net, Routes: routes, Engines: 2,
		Part: halfSplit(net), Window: 5 * des.Millisecond,
		End: horizon, RealTimeFactor: pace, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The Agent is the live-traffic boundary: virtual IP mapping plus
	// message injection and delivery.
	ag := agent.New(sim, 5*des.Millisecond)
	ag.MapHost("client", hosts[0])
	ag.MapHost("server", hosts[len(hosts)-1])
	clientIn := ag.Listen(hosts[0], 16)
	serverIn := ag.Listen(hosts[len(hosts)-1], 16)

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
		if err := ag.SendNamed("client", "server", []byte("ping 0")); err != nil {
			log.Fatal(err)
		}
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

	sim.Run()
	// The horizon passed; close the listener channels to release the live
	// goroutines.
	ag.Close()
	wg.Wait()
	sent, delivered, dropped := ag.Stats()
	fmt.Printf("agent: %d live messages sent, %d delivered, %d dropped\n", sent, delivered, dropped)
}

// halfSplit puts the first half of the nodes on engine 0 and the rest on
// engine 1 — crude, but this example is about the live-traffic path, not
// load balance (see examples/singleas for the mapping approaches).
func halfSplit(net *model.Network) []int32 {
	part := make([]int32, len(net.Nodes))
	for i := range part {
		if i >= len(part)/2 {
			part[i] = 1
		}
	}
	// Respect the conservative window: merge any cut link shorter than
	// 5 ms back onto engine 0.
	for changed := true; changed; {
		changed = false
		for i := range net.Links {
			l := &net.Links[i]
			if part[l.A] != part[l.B] && l.Latency < int64(5*des.Millisecond) {
				part[l.A], part[l.B] = 0, 0
				changed = true
			}
		}
	}
	return part
}
