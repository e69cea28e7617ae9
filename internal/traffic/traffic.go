// Package traffic generates the paper's workloads on top of the packet
// simulator (Section 4.2):
//
//   - Background traffic: clients continuously sending HTTP file requests
//     to servers — mean 5 s think time, mean 50 KB responses.
//   - Foreground "Grid application" traffic: communication models of the
//     ScaLapack and GridNPB 3.0 (Helical Chain, Visualization Pipeline,
//     Mixed Bag) applications the paper executes live through WrapSocket.
//     The models reproduce the applications' traffic patterns — iterative
//     broadcast/gather for ScaLapack, workflow data-flow graphs for
//     GridNPB — which is the part the load balance results depend on (see
//     DESIGN.md substitution #2).
//
// All callbacks respect engine ownership: a handler only ever runs on the
// engine owning the host it touches, using receiver-side flow callbacks to
// chain request → response → next request across partitions.
//
// Each HTTP client draws from its own math/rand/v2 PCG stream, seeded from
// the workload's seed and the client's index alone: two words of state and
// O(1) seeding, so a workload of a million clients costs a million small
// things, and building the same workload again costs what building it once
// did.
package traffic

import (
	"math"
	"math/rand/v2"

	"massf/internal/des"
	"massf/internal/model"
	"massf/internal/netsim"
)

// HTTPConfig describes the background workload.
type HTTPConfig struct {
	// Clients and Servers are host node ids. Each client repeatedly picks
	// a uniformly random server.
	Clients, Servers []model.NodeID
	// MeanGap is the mean exponential think time between a response
	// finishing and the next request. Paper: 5 s.
	MeanGap des.Time
	// MeanFileBytes is the mean exponential response size. Paper: 50 KB.
	MeanFileBytes int64
	// Seed drives the per-client deterministic RNGs.
	Seed int64
}

// requestBytes is the fixed HTTP request size.
const requestBytes = 500

func (c *HTTPConfig) setDefaults() {
	if c.MeanGap <= 0 {
		c.MeanGap = 5 * des.Second
	}
	if c.MeanFileBytes <= 0 {
		c.MeanFileBytes = 50_000
	}
}

// HTTPStats counts workload activity; fields are aggregated after Run (the
// per-client counters are only written by the owning engines during it).
type HTTPStats struct {
	Requests  []uint64 // per client
	Responses []uint64 // per client (fully received files)
}

// TotalRequests sums the per-client request counters.
func (st *HTTPStats) TotalRequests() uint64 { return sum(st.Requests) }

// TotalResponses sums the per-client response counters.
func (st *HTTPStats) TotalResponses() uint64 { return sum(st.Responses) }

func sum(v []uint64) uint64 {
	var t uint64
	for _, x := range v {
		t += x
	}
	return t
}

// Tag kinds the HTTP workload registers on its simulation (a model-level
// namespace; keep distinct from any other RegisterTag caller on the same
// Sim).
const (
	// TagHTTPRequest marks a request flow: fires on the server when the
	// request fully arrives. A = client index, B = response size in bytes.
	TagHTTPRequest uint16 = 1
	// TagHTTPResponse marks a response flow: fires on the client when the
	// file fully arrives. A = client index.
	TagHTTPResponse uint16 = 2
)

// httpWorkload is the per-Sim state behind the tag resolvers: replicated
// setup builds an identical copy on every worker of a distributed run, so
// a Tag resolves to an equivalent callback wherever it lands. Per-client
// RNGs are drawn only from handlers on the client's engine, keeping them
// single-owner (and, distributed, single-worker).
type httpWorkload struct {
	s     *netsim.Sim
	cfg   HTTPConfig
	stats *HTTPStats
	rngs  []rand.Rand
}

// issue sends client ci's next request at time at. Runs on the client's
// engine.
func (h *httpWorkload) issue(ci int, at des.Time) {
	server, size := h.cfg.draw(&h.rngs[ci])
	h.stats.Requests[ci]++
	// Request flow; when it fully arrives at the server, the server sends
	// the file; when the file fully arrives back, the client thinks and
	// repeats. The chain crosses engine (and worker) boundaries through
	// tags, so every callback runs on the engine owning the host it
	// manipulates — on whichever worker hosts it.
	h.s.StartFlowTagged(at, h.cfg.Clients[ci], server, requestBytes,
		netsim.Tag{}, netsim.Tag{Kind: TagHTTPRequest, A: uint64(ci), B: uint64(size)})
}

// InstallHTTP wires the background workload into the simulation. Call
// before Run (in distributed runs: during the replicated setup, on every
// worker). Each client starts its first request at a random point of the
// think time, and the clients' first requests are spread evenly over it
// (firstRequest), so load ramps smoothly. Client ci draws from
// clientStreams(cfg.Seed, …)[ci], as FluidHTTP's does. At most one HTTP
// workload per simulation (the tag kinds would collide).
func InstallHTTP(s *netsim.Sim, cfg HTTPConfig) *HTTPStats {
	cfg.setDefaults()
	stats := &HTTPStats{
		Requests:  make([]uint64, len(cfg.Clients)),
		Responses: make([]uint64, len(cfg.Clients)),
	}
	if len(cfg.Servers) == 0 {
		return stats
	}
	h := &httpWorkload{s: s, cfg: cfg, stats: stats, rngs: clientStreams(cfg.Seed, len(cfg.Clients))}
	s.RegisterTag(TagHTTPRequest, func(t netsim.Tag, src, dst model.NodeID) func(des.Time) {
		return func(at des.Time) {
			// On the server (dst): send the file back to the client (src).
			h.s.StartFlowTagged(at, dst, src, int64(t.B),
				netsim.Tag{}, netsim.Tag{Kind: TagHTTPResponse, A: t.A})
		}
	})
	s.RegisterTag(TagHTTPResponse, func(t netsim.Tag, src, dst model.NodeID) func(des.Time) {
		ci := int(t.A)
		return func(at des.Time) {
			// On the client: count the file, think, request again.
			h.stats.Responses[ci]++
			gap := des.Time(h.rngs[ci].ExpFloat64() * float64(h.cfg.MeanGap))
			h.issue(ci, at+gap)
		}
	})
	shift := rampShift(cfg.Seed)
	for ci, client := range cfg.Clients {
		ci := ci
		first := cfg.firstRequest(ci, &h.rngs[ci], shift)
		s.ScheduleAt(client, first, func(at des.Time) { h.issue(ci, at) })
	}
	return stats
}

// clientStreams returns the streams of n HTTP clients under seed: client
// ci draws from the PCG seeded with (seed, ci). It is the one recipe both
// the packet workload (InstallHTTP) and its fluid twin (FluidHTTP) draw
// from, so the two fidelities model the same clients. The sources and
// their Rands are two allocations, whatever n is.
func clientStreams(seed int64, n int) []rand.Rand {
	srcs := make([]rand.PCG, n)
	rngs := make([]rand.Rand, n)
	for ci := range srcs {
		srcs[ci].Seed(uint64(seed), uint64(ci))
		rngs[ci] = *rand.New(&srcs[ci])
	}
	return rngs
}

// goldenStep is the golden ratio's fractional part: n steps of it around a
// circle leave no gap as wide as 2/n.
const goldenStep = 0.6180339887498949

// rampShift draws the offset of a workload's ramp (firstRequest) from a
// stream no client uses.
func rampShift(seed int64) float64 {
	return rand.New(rand.NewPCG(uint64(seed), math.MaxUint64)).Float64()
}

// firstRequest draws client ci's first request time, its stream's first
// draw. Client ci sits at shift + ci·goldenStep around the think time, mod
// 1, jittered by its own draw over 1/n of it: each client's first request
// is uniform over the think time, as an independent draw's would be, and
// the population's leave no gap wider than 3/n of it. Independent draws
// leave a 0.5 s window of 47 clients at a 5 s think time empty 0.7 % of
// the time.
func (c *HTTPConfig) firstRequest(ci int, rng *rand.Rand, shift float64) des.Time {
	_, f := math.Modf(shift + float64(ci)*goldenStep + rng.Float64()/float64(len(c.Clients)))
	return des.Time(f * float64(c.MeanGap))
}

// draw samples a client's next request from its stream: a uniformly random
// server, then an exponential response size of at least 1000 bytes.
func (c *HTTPConfig) draw(rng *rand.Rand) (server model.NodeID, size int64) {
	server = c.Servers[rng.IntN(len(c.Servers))]
	size = max(int64(rng.ExpFloat64()*float64(c.MeanFileBytes)), 1000)
	return server, size
}
