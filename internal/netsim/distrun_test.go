package netsim_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"massf/internal/des"
	"massf/internal/model"
	"massf/internal/netsim"
	"massf/internal/pdes"
	"massf/internal/routing/interdomain"
	"massf/internal/traffic"
	"massf/internal/wire"
)

// memHub is an in-memory mesh: the same folding and star routing the TCP
// workers (internal/dist) perform, without sockets, so the netsim wire
// codec and replica adoption are tested at full speed under -race. Like
// them it decides nothing: each worker's pdes loop takes the next window.
type memHub struct {
	k           int
	first, last []int
	ch          chan memDone
	quit        chan struct{} // closed once every worker's run is over
}

type memDone struct {
	worker int
	d      pdes.WindowDone
	reply  chan pdes.WindowGo
}

type memTransport struct {
	hub    *memHub
	worker int
}

func (t *memTransport) Exchange(d pdes.WindowDone) (pdes.WindowGo, error) {
	reply := make(chan pdes.WindowGo, 1)
	t.hub.ch <- memDone{worker: t.worker, d: d, reply: reply}
	return <-reply, nil
}

func (h *memHub) serve() {
	pending := make([]memDone, 0, h.k)
	for {
		pending = pending[:0]
		for len(pending) < h.k {
			select {
			case d := <-h.ch:
				pending = append(pending, d)
			case <-h.quit:
				return
			}
		}
		start := pending[0].d.Start
		stop := false
		next := des.EndOfTime
		outs := make([][]wire.Event, h.k)
		for _, p := range pending {
			if p.d.Start != start {
				panic("workers disagree on window")
			}
			stop = stop || p.d.Stop
			next = min(next, p.d.LocalNext)
			for _, ev := range p.d.Events {
				routed := false
				for j := 0; j < h.k; j++ {
					if int(ev.Dst) >= h.first[j] && int(ev.Dst) < h.last[j] {
						outs[j] = append(outs[j], ev)
						routed = true
						break
					}
				}
				if !routed {
					panic("unroutable event destination")
				}
			}
		}
		for _, p := range pending {
			p.reply <- pdes.WindowGo{Next: next, Stop: stop, Events: outs[p.worker]}
		}
	}
}

// distNet is a 16-router ring with chords and one host per router; every
// link latency is ≥ the 1ms window so the mod-N partition is legal, and
// host links stay engine-internal under it.
func distNet() *model.Network {
	const routers = 16
	net := &model.Network{}
	var rs [routers]model.NodeID
	for i := 0; i < routers; i++ {
		rs[i] = net.AddNode(model.Router, 0, float64(i), 0)
	}
	for i := 0; i < routers; i++ {
		h := net.AddNode(model.Host, 0, float64(i), 1)
		net.AddLink(rs[i], h, int64(des.Millisecond), model.Bps100M)
	}
	for i := 0; i < routers; i++ {
		net.AddLink(rs[i], rs[(i+1)%routers], int64(2*des.Millisecond), model.Bps100M)
	}
	for i := 0; i < routers; i += 4 {
		net.AddLink(rs[i], rs[(i+routers/2)%routers], int64(3*des.Millisecond), model.Bps100M)
	}
	net.ASes = []model.AS{{ID: 0, DefaultBorder: -1}}
	return net
}

const distEngines = 8

// workerObs is one worker's (or the reference run's) observation of the
// shared scenario: per-flow completion/delivery times are written only by
// the owning engine, counters only by hosted engines.
type workerObs struct {
	tcpDone, tcpRecv, udpRecv []des.Time
	http                      *traffic.HTTPStats
	res                       netsim.Result
}

// buildDistScenario is the replicated setup: every caller (each worker and
// the in-process reference) constructs an identical network and traffic
// script. transport nil is the in-process reference.
func buildDistScenario(t *testing.T, transport pdes.Transport, first, hosted int) (*netsim.Sim, *workerObs) {
	t.Helper()
	net := distNet()
	part := make([]int32, len(net.Nodes))
	for i := range part {
		part[i] = int32(i % distEngines)
	}
	// QueueBytes is squeezed so the shared ring links drop under load: the
	// comparison must cover TCP loss recovery (dup ACKs, RTO) crossing
	// worker boundaries, not just the lossless path.
	s, err := netsim.New(netsim.Config{
		Net: net, Routes: interdomain.New(net), Part: part, Engines: distEngines,
		Window: des.Millisecond, End: 700 * des.Millisecond,
		QueueBytes: 6_000,
		Transport:  transport, FirstEngine: first, HostedEngines: hosted,
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
	const nTCP, nUDP = 14, 14
	obs := &workerObs{
		tcpDone: make([]des.Time, nTCP),
		tcpRecv: make([]des.Time, nTCP),
		udpRecv: make([]des.Time, nUDP),
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < nTCP; i++ {
		i := i
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[(int(src)+1+rng.Intn(len(hosts)-1))%len(hosts)]
		at := des.Time(rng.Intn(300)) * des.Millisecond
		bytes := int64(20_000 + rng.Intn(400_000))
		s.StartFlowRecv(at, src, dst, bytes,
			func(at des.Time) { obs.tcpDone[i] = at },
			func(at des.Time) { obs.tcpRecv[i] = at })
	}
	for i := 0; i < nUDP; i++ {
		i := i
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		at := des.Time(rng.Intn(400)) * des.Millisecond
		s.SendUDP(at, src, dst, int64(200+rng.Intn(8_000)),
			func(at des.Time) { obs.udpRecv[i] = at })
	}
	// HTTP rides the Tag registry: request/response chains cross worker
	// boundaries through runtime-started flows and replica adoption.
	obs.http = traffic.InstallHTTP(s, traffic.HTTPConfig{
		Clients: hosts[:4], Servers: hosts[len(hosts)-2:],
		MeanGap: 25 * des.Millisecond, MeanFileBytes: 15_000, Seed: 99,
	})
	return s, obs
}

// mergeTimes folds per-flow times across workers; at most one worker may
// report a nonzero time per slot.
func mergeTimes(t *testing.T, field string, into []des.Time, from []des.Time) {
	t.Helper()
	for i, v := range from {
		if v == 0 {
			continue
		}
		if into[i] != 0 && into[i] != v {
			t.Errorf("%s[%d] reported by two workers: %v and %v", field, i, into[i], v)
		}
		into[i] = v
	}
}

func sumU64(a, b []uint64) []uint64 {
	if a == nil {
		a = make([]uint64, len(b))
	}
	for i := range b {
		a[i] += b[i]
	}
	return a
}

// TestDistributedNetsimMatchesInProcess runs the full packet model — TCP
// with loss recovery, UDP, tag-chained HTTP — split across worker Sims
// joined only by the wire codec, and requires every partition-independent
// observable to match the in-process run byte for byte.
func TestDistributedNetsimMatchesInProcess(t *testing.T) {
	refSim, refObs := buildDistScenario(t, nil, 0, 0)
	refObs.res = refSim.Run()
	if refObs.res.TotalEvents == 0 || refObs.res.RemoteEvents == 0 ||
		refObs.http.TotalResponses() == 0 || refObs.res.Retransmissions == 0 ||
		refObs.res.Dropped == 0 {
		t.Fatalf("degenerate reference run: events=%d remote=%d httpResp=%d retrans=%d dropped=%d",
			refObs.res.TotalEvents, refObs.res.RemoteEvents,
			refObs.http.TotalResponses(), refObs.res.Retransmissions, refObs.res.Dropped)
	}

	for _, split := range [][]int{{4, 4}, {3, 3, 2}, {1, 1, 1, 1, 1, 1, 1, 1}} {
		split := split
		t.Run(fmt.Sprintf("workers=%d", len(split)), func(t *testing.T) {
			k := len(split)
			hub := &memHub{k: k, ch: make(chan memDone, k), quit: make(chan struct{})}
			first := 0
			for _, n := range split {
				hub.first = append(hub.first, first)
				hub.last = append(hub.last, first+n)
				first += n
			}
			go hub.serve()

			sims := make([]*netsim.Sim, k)
			obs := make([]*workerObs, k)
			var wg sync.WaitGroup
			for j := 0; j < k; j++ {
				sims[j], obs[j] = buildDistScenario(t,
					&memTransport{hub: hub, worker: j}, hub.first[j], hub.last[j]-hub.first[j])
			}
			for j := 0; j < k; j++ {
				j := j
				wg.Add(1)
				go func() {
					defer wg.Done()
					obs[j].res = sims[j].Run()
				}()
			}
			wg.Wait()
			close(hub.quit)

			merged := &workerObs{
				tcpDone: make([]des.Time, len(refObs.tcpDone)),
				tcpRecv: make([]des.Time, len(refObs.tcpRecv)),
				udpRecv: make([]des.Time, len(refObs.udpRecv)),
				http:    &traffic.HTTPStats{},
			}
			for j := 0; j < k; j++ {
				r := &obs[j].res
				if r.Err != nil {
					t.Fatalf("worker %d: %v", j, r.Err)
				}
				mergeTimes(t, "tcpDone", merged.tcpDone, obs[j].tcpDone)
				mergeTimes(t, "tcpRecv", merged.tcpRecv, obs[j].tcpRecv)
				mergeTimes(t, "udpRecv", merged.udpRecv, obs[j].udpRecv)
				merged.http.Requests = sumU64(merged.http.Requests, obs[j].http.Requests)
				merged.http.Responses = sumU64(merged.http.Responses, obs[j].http.Responses)
				merged.res.TotalEvents += r.TotalEvents
				merged.res.DeliveredBits += r.DeliveredBits
				merged.res.Dropped += r.Dropped
				merged.res.Retransmissions += r.Retransmissions
				merged.res.FlowsStarted += r.FlowsStarted
				merged.res.FlowsCompleted += r.FlowsCompleted
				if r.LastCompletion > merged.res.LastCompletion {
					merged.res.LastCompletion = r.LastCompletion
				}
				merged.res.NodeEvents = sumU64(merged.res.NodeEvents, r.NodeEvents)
				merged.res.LinkBits = sumU64(merged.res.LinkBits, r.LinkBits)
				merged.res.LinkDrops = sumU64(merged.res.LinkDrops, r.LinkDrops)
			}

			eq := func(field string, got, want interface{}) {
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: distributed %v, in-process %v", field, got, want)
				}
			}
			eq("TotalEvents", merged.res.TotalEvents, refObs.res.TotalEvents)
			eq("DeliveredBits", merged.res.DeliveredBits, refObs.res.DeliveredBits)
			eq("Dropped", merged.res.Dropped, refObs.res.Dropped)
			eq("Retransmissions", merged.res.Retransmissions, refObs.res.Retransmissions)
			eq("FlowsStarted", merged.res.FlowsStarted, refObs.res.FlowsStarted)
			eq("FlowsCompleted", merged.res.FlowsCompleted, refObs.res.FlowsCompleted)
			eq("LastCompletion", merged.res.LastCompletion, refObs.res.LastCompletion)
			eq("NodeEvents", merged.res.NodeEvents, refObs.res.NodeEvents)
			eq("LinkBits", merged.res.LinkBits, refObs.res.LinkBits)
			eq("LinkDrops", merged.res.LinkDrops, refObs.res.LinkDrops)
			eq("tcpDone", merged.tcpDone, refObs.tcpDone)
			eq("tcpRecv", merged.tcpRecv, refObs.tcpRecv)
			eq("udpRecv", merged.udpRecv, refObs.udpRecv)
			eq("HTTPRequests", merged.http.Requests, refObs.http.Requests)
			eq("HTTPResponses", merged.http.Responses, refObs.http.Responses)
		})
	}
}
