package traffic

import (
	"math/rand/v2"

	"massf/internal/des"
	"massf/internal/fluid"
	"massf/internal/model"
)

// fluidClient is one HTTP client's closed-loop state inside the fluid
// plane build: the same per-client RNG stream InstallHTTP uses, plus
// which half of the request→response exchange the chain is in.
type fluidClient struct {
	rng     *rand.Rand
	server  model.NodeID
	size    int64
	inReply bool // the in-flight flow is the response half
}

// FluidHTTP compiles the HTTP background workload (the same HTTPConfig
// InstallHTTP consumes) into fluid-plane form: each client is one closed
// chain whose request flow spawns the response flow on completion, and
// whose response completion draws the think gap and issues the next
// request. The per-client RNG streams (clientStreams builds both) and
// the draw order mirror InstallHTTP exactly — same seed, same servers,
// same sizes, same think times — so a hybrid run's fluid workload is the
// analytic twin of the packet workload it replaces, and the simcheck
// error budget compares like with like.
//
// Returns the initial request flows (client index = chain id), the
// chain-continuation callback for fluid.Config.Next, and the stats
// filled in during the build (requests at issue, responses at response
// completion). Pass end so requests beyond the horizon are not counted.
func FluidHTTP(cfg HTTPConfig, end des.Time) ([]fluid.Flow, func(int32, des.Time) (fluid.Flow, bool), *HTTPStats) {
	cfg.setDefaults()
	stats := &HTTPStats{
		Requests:  make([]uint64, len(cfg.Clients)),
		Responses: make([]uint64, len(cfg.Clients)),
	}
	if len(cfg.Servers) == 0 {
		return nil, nil, stats
	}
	rngs := clientStreams(cfg.Seed, len(cfg.Clients))
	clients := make([]fluidClient, len(cfg.Clients))
	issue := func(ci int) {
		c := &clients[ci]
		c.server, c.size = cfg.draw(c.rng)
		c.inReply = false
	}
	flows := make([]fluid.Flow, 0, len(cfg.Clients))
	shift := rampShift(cfg.Seed)
	for ci, client := range cfg.Clients {
		c := &clients[ci]
		c.rng = &rngs[ci]
		first := cfg.firstRequest(ci, c.rng, shift)
		issue(ci)
		if first < end {
			stats.Requests[ci]++
		}
		flows = append(flows, fluid.Flow{
			Src: client, Dst: c.server, Bytes: requestBytes,
			Start: first, Chain: int32(ci),
		})
	}
	next := func(chain int32, at des.Time) (fluid.Flow, bool) {
		ci := int(chain)
		c := &clients[ci]
		if !c.inReply {
			// Request landed: the server sends the file back.
			c.inReply = true
			return fluid.Flow{
				Src: c.server, Dst: cfg.Clients[ci], Bytes: c.size,
				Start: at, Chain: chain,
			}, true
		}
		// Response landed: think, then the next request.
		stats.Responses[ci]++
		gap := des.Time(c.rng.ExpFloat64() * float64(cfg.MeanGap))
		issue(ci)
		start := at + gap
		if start >= end {
			return fluid.Flow{}, false // next request falls beyond the horizon
		}
		stats.Requests[ci]++
		return fluid.Flow{
			Src: cfg.Clients[ci], Dst: c.server, Bytes: requestBytes,
			Start: start, Chain: chain,
		}, true
	}
	return flows, next, stats
}
