package traffic

import (
	"reflect"
	"testing"

	"massf/internal/des"
	"massf/internal/fluid"
	"massf/internal/model"
	"massf/internal/routing/interdomain"
	"massf/internal/topology"
)

func fluidTestNet(t *testing.T) (*model.Network, []model.NodeID) {
	t.Helper()
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 20, Hosts: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var hs []model.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			hs = append(hs, model.NodeID(i))
		}
	}
	return net, hs
}

func TestFluidHTTPDrivesClosedLoops(t *testing.T) {
	net, hosts := fluidTestNet(t)
	end := des.Time(20 * des.Second)
	cfg := HTTPConfig{
		Clients: hosts[:6], Servers: hosts[6:],
		MeanGap: des.Second, MeanFileBytes: 20_000, Seed: 1,
	}
	flows, next, stats := FluidHTTP(cfg, end)
	if len(flows) != 6 {
		t.Fatalf("initial flows = %d, want one per client", len(flows))
	}
	p, err := fluid.Build(fluid.Config{
		Net: net, Routes: interdomain.New(net), End: end, Next: next,
	}, flows)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalRequests() == 0 || stats.TotalResponses() == 0 {
		t.Fatalf("requests=%d responses=%d, want both > 0",
			stats.TotalRequests(), stats.TotalResponses())
	}
	// Closed loop: every response follows a request, every chain keeps
	// cycling, so requests ≥ responses and the plane grew past the seeds.
	if stats.TotalRequests() < stats.TotalResponses() {
		t.Fatalf("requests %d < responses %d", stats.TotalRequests(), stats.TotalResponses())
	}
	if p.NumFlows() < 2*int(stats.TotalResponses()) {
		t.Fatalf("NumFlows = %d, want ≥ 2 per completed exchange (%d)",
			p.NumFlows(), stats.TotalResponses())
	}
	// ~20 think times per client: expect a healthy number of exchanges.
	if got := stats.TotalResponses(); got < 40 {
		t.Errorf("responses = %d, want ≥ 40 over 20s × 6 clients at 1s gaps", got)
	}
	// Chains alternate request (client→server) and response (server→client).
	perChain := map[int32]int{}
	for i := 0; i < p.NumFlows(); i++ {
		f := p.Flow(i)
		k := perChain[f.Chain]
		client := cfg.Clients[f.Chain]
		if k%2 == 0 && f.Src != client {
			t.Fatalf("chain %d flow %d: request src = %d, want client %d", f.Chain, k, f.Src, client)
		}
		if k%2 == 1 && f.Dst != client {
			t.Fatalf("chain %d flow %d: response dst = %d, want client %d", f.Chain, k, f.Dst, client)
		}
		perChain[f.Chain] = k + 1
	}
}

func TestFluidHTTPDeterministicAcrossBuilds(t *testing.T) {
	net, hosts := fluidTestNet(t)
	end := des.Time(10 * des.Second)
	cfg := HTTPConfig{
		Clients: hosts[:5], Servers: hosts[5:],
		MeanGap: des.Second / 2, MeanFileBytes: 30_000, Seed: 9,
	}
	build := func() *fluid.Plane {
		flows, next, _ := FluidHTTP(cfg, end)
		p, err := fluid.Build(fluid.Config{
			Net: net, Routes: interdomain.New(net), End: end, Next: next,
		}, flows)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if a, b := build(), build(); !reflect.DeepEqual(a, b) {
		t.Fatal("two FluidHTTP builds of the same config differ")
	}
}

// TestFluidHTTPMirrorsPacketDraws pins the RNG contract: FluidHTTP's
// first-request times and first server/size draws must equal what
// InstallHTTP's per-client streams produce, so hybrid and pure-packet
// runs of one scenario model the same workload.
func TestFluidHTTPMirrorsPacketDraws(t *testing.T) {
	_, hosts := fluidTestNet(t)
	cfg := HTTPConfig{
		Clients: hosts[:4], Servers: hosts[4:],
		MeanGap: des.Second, MeanFileBytes: 20_000, Seed: 77,
	}
	flows, _, _ := FluidHTTP(cfg, des.Time(des.Second))
	// Recreate the packet side's draws from the streams it builds.
	rngs := clientStreams(cfg.Seed, len(cfg.Clients))
	shift := rampShift(cfg.Seed)
	for ci := range cfg.Clients {
		rng := &rngs[ci]
		first := cfg.firstRequest(ci, rng, shift)
		server := cfg.Servers[rng.IntN(len(cfg.Servers))]
		if flows[ci].Start != first {
			t.Fatalf("client %d: first request at %v, packet draw %v", ci, flows[ci].Start, first)
		}
		if flows[ci].Dst != server {
			t.Fatalf("client %d: first server %d, packet draw %d", ci, flows[ci].Dst, server)
		}
		if flows[ci].Bytes != requestBytes {
			t.Fatalf("client %d: request bytes %d, want %d", ci, flows[ci].Bytes, requestBytes)
		}
	}
}
