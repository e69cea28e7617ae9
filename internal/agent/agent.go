// Package agent implements MaSSF's online simulation capability (Figure 1
// of the paper): live traffic from real application code is intercepted
// and redirected through the simulated network, and deliveries flow back
// to the application. In MaSSF this is the Agent + WrapSocket pair with a
// virtual/real IP mapping server; here the applications are real Go
// goroutines that address hosts by node id, and the socket boundary is a
// message API:
//
//	a := agent.New(sim, pumpInterval)
//	a.Listen(server, func(m agent.Message) bool { // the wrapped "socket"
//		return offer(m) // must not block; false drops m
//	})
//	a.Send(client, server, payload) // from any live goroutine
//
// The ingest plane (NewIngest) serves the same boundary over TCP, where a
// client addresses hosts by index into the host table it gets at attach.
//
// Combined with netsim's RealTimeFactor pacing (the paper's soft real-time
// scheduler with slowdown mode), live goroutines observe wall-clock
// latencies proportional to the simulated network's latencies.
//
// The agent boundary is the only place in the simulator where locks cross
// goroutines: live applications run on arbitrary goroutines, so their
// messages park in a mutex-guarded inbox that per-engine pump events drain
// at each pump interval — mirroring how MaSSF's Agent queues live packets
// into the simulation at window boundaries.
package agent

import (
	"sort"
	"sync"

	"massf/internal/des"
	"massf/internal/model"
	"massf/internal/netsim"
)

// Message is one live payload carried through the simulated network.
type Message struct {
	From, To model.NodeID
	Payload  []byte
	// InjectedAt is the simulated time the message entered the network;
	// DeliveredAt is when its last byte reached the destination.
	InjectedAt, DeliveredAt des.Time

	// key orders messages inside one injection epoch (see send);
	// onInject acknowledges the injection to the producer.
	key      uint64
	onInject func()
}

// Counters snapshots agent activity: messages accepted from live
// goroutines, injected into the kernel at pump epochs, delivered to
// listeners, and dropped (no listener, or a full/refusing one).
type Counters struct {
	Sent      uint64 `json:"sent"`
	Injected  uint64 `json:"injected"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
}

// Agent bridges live goroutines and the simulation.
type Agent struct {
	sim  *netsim.Sim
	pump des.Time

	mu        sync.Mutex
	inbox     map[int][]Message // per engine: awaiting injection
	sinks     map[model.NodeID]func(Message) bool
	seq       uint64
	dropped   uint64
	sent      uint64
	injected  uint64
	delivered uint64
}

// New creates an agent on sim, installing an injection pump on every
// engine that fires every pumpInterval of simulated time. Call before
// sim.Run.
func New(sim *netsim.Sim, pumpInterval des.Time) *Agent {
	if pumpInterval <= 0 {
		pumpInterval = des.Millisecond
	}
	a := &Agent{
		sim:   sim,
		pump:  pumpInterval,
		inbox: make(map[int][]Message),
		sinks: make(map[model.NodeID]func(Message) bool),
	}
	for e := 0; e < sim.Config().Engines; e++ {
		e := e
		var tick des.Handler
		tick = func(now des.Time) {
			a.drain(e, now)
			if next := now + a.pump; next < sim.Config().End {
				a.sim.Engine(e).Schedule(next, tick)
			}
		}
		sim.Engine(e).Schedule(pumpInterval, tick)
	}
	return a
}

// Listen registers fn as host n's delivery sink, replacing any sink
// already listening there. fn runs on the delivering engine's goroutine
// and must not block; returning false refuses the message (counted
// dropped) — the non-stalling half of the backpressure contract, letting
// a slow consumer shed deliveries without ever holding up the simulation.
func (a *Agent) Listen(n model.NodeID, fn func(Message) bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sinks[n] = fn
}

// Send queues a live message from host `from` to host `to`. It is safe to
// call from any goroutine, including while the simulation runs; the
// message enters the network at the next pump on from's engine.
func (a *Agent) Send(from, to model.NodeID, payload []byte) {
	a.send(from, to, payload, 0, nil)
}

// send is Send with an injection-epoch ordering key and an injection
// acknowledgement, the ingest plane's form. A pump epoch injects its
// messages in ascending key order whatever goroutine won the inbox race,
// so keys drawn from a producer's own stream (connection id << 32 |
// sequence) make injection deterministic; key 0 takes the arrival
// counter, Send's order. onInject, if non-nil, runs on the injecting
// engine as the message enters the kernel (credit windows hang off it)
// and must not block.
func (a *Agent) send(from, to model.NodeID, payload []byte, key uint64, onInject func()) {
	eng := a.sim.EngineOf(from)
	a.mu.Lock()
	a.seq++
	if key == 0 {
		key = a.seq
	}
	a.inbox[eng] = append(a.inbox[eng], Message{
		From: from, To: to, Payload: payload, key: key, onInject: onInject,
	})
	a.sent++
	a.mu.Unlock()
}

// drain runs on engine e's goroutine: it injects every queued message
// whose source that engine owns as a TCP flow through the simulated
// network. The epoch's batch is sorted by ordering key first, so the
// injection sequence is a pure function of the message streams, not of
// inbox arrival races.
func (a *Agent) drain(e int, now des.Time) {
	a.mu.Lock()
	msgs := a.inbox[e]
	a.inbox[e] = nil
	a.injected += uint64(len(msgs))
	a.mu.Unlock()
	sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].key < msgs[j].key })
	for _, m := range msgs {
		m.InjectedAt = now
		size := int64(len(m.Payload))
		if size == 0 {
			size = 1
		}
		if m.onInject != nil {
			m.onInject()
		}
		a.sim.StartFlowRecv(now, m.From, m.To, size, nil, func(at des.Time) {
			m.DeliveredAt = at
			a.deliver(m)
		})
	}
}

// deliver hands a completed message to its host's sink, if any.
func (a *Agent) deliver(m Message) {
	a.mu.Lock()
	sink := a.sinks[m.To]
	a.mu.Unlock()
	if sink != nil && sink(m) {
		a.count(&a.delivered)
	} else {
		a.count(&a.dropped)
	}
}

func (a *Agent) count(c *uint64) {
	a.mu.Lock()
	*c++
	a.mu.Unlock()
}

// Counters snapshots the agent's activity counters (see the type).
func (a *Agent) Counters() Counters {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Counters{Sent: a.sent, Injected: a.injected, Delivered: a.delivered, Dropped: a.dropped}
}
