package simcheck

import (
	"os"
	"runtime"
	"testing"

	"massf/internal/core"
	"massf/internal/memstat"
	"massf/internal/model"
	"massf/internal/routing/interdomain"
	"massf/internal/topology"
)

// TestBigTopoSliceMemory is the `make bigtopo` nightly smoke: on a 2-AS
// large-fanout topology partitioned for k=4, one worker's slice must retain
// well under 60% of the replicated baseline — both in OSPF table bytes
// (deterministic) and in measured heap growth. Replicated and sliced
// routing state are built sequentially in this one process (loopback
// workers share a heap, so per-process sampling cannot separate them) with
// a GC'd memstat reading around each.
//
// Heavy: gated behind MASSF_BIGTOPO=1, which the Makefile target sets.
func TestBigTopoSliceMemory(t *testing.T) {
	if os.Getenv("MASSF_BIGTOPO") != "1" {
		t.Skip("bigtopo memory smoke only runs under `make bigtopo` (MASSF_BIGTOPO=1)")
	}
	net := fanoutNet(2, 8, 9992, 500) // 20,000 routers — the paper's full scale
	m, err := mapOnly(net, core.TOP2, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	var hosts []model.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			hosts = append(hosts, model.NodeID(i))
		}
	}

	// Replicated baseline: what every worker held before the refactor —
	// global routing trees eagerly warmed for every traffic destination.
	base := memstat.ReadStable().HeapInuse
	repRouter := interdomain.New(net)
	repRouter.Prepare(hosts)
	repHeap := heapDelta(base)
	repBytes := repRouter.TableBytes()
	if repBytes == 0 {
		t.Fatal("replicated router retained no tables")
	}
	repRouter = nil //nolint:ineffassign // release before the sliced measurement

	// Sliced worker 0 of a 4-worker fleet (engines [0,1)): scoped routing,
	// warmed for the same destinations as a worker warms it.
	sl, err := topology.BuildSlice(net, m.Part, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	base = memstat.ReadStable().HeapInuse
	sliRouter := interdomain.NewScoped(net, sl.Owned)
	sliRouter.Prepare(hosts)
	sliHeap := heapDelta(base)
	sliBytes := sliRouter.TableBytes()
	runtime.KeepAlive(sliRouter)
	if sliBytes == 0 {
		t.Fatal("sliced router cached no tables — warm-up measured nothing")
	}

	t.Logf("replicated: %d table bytes, %d heap bytes; sliced: %d table bytes, %d heap bytes (%d owned nodes)",
		repBytes, repHeap, sliBytes, sliHeap, sl.OwnedNodes)
	if sliBytes >= repBytes*60/100 {
		t.Errorf("sliced worker retains %d table bytes, ≥ 60%% of replicated %d", sliBytes, repBytes)
	}
	if sliHeap >= repHeap*60/100 {
		t.Errorf("sliced worker grew the heap by %d bytes, ≥ 60%% of replicated %d", sliHeap, repHeap)
	}
}

// heapDelta returns HeapInuse growth since base, clamped at zero (a GC
// between readings can shrink the heap below the baseline).
func heapDelta(base uint64) int64 {
	now := memstat.ReadStable().HeapInuse
	if now < base {
		return 0
	}
	return int64(now - base)
}

// fanoutNet hand-builds the bigtopo shape — mabrite needs ≥ 3 ASes, and the
// smoke wants exactly two. Each AS is a full spine mesh with a large leaf
// fanout (every leaf dual-homed to two spines) and hosts spread round-robin
// over the leaves; the two ASes peer over two spine-to-spine links.
func fanoutNet(ases, spines, leaves, hostsPerAS int) *model.Network {
	net := &model.Network{}
	net.ASes = make([]model.AS, ases)
	spineIDs := make([][]model.NodeID, ases)
	for as := 0; as < ases; as++ {
		a := &net.ASes[as]
		a.ID = int32(as)
		a.Class = model.ASCore
		a.DefaultBorder = -1
		ox := float64(as) * 2000
		for s := 0; s < spines; s++ {
			id := net.AddNode(model.Router, int32(as), ox+float64(s)*10, 0)
			for _, prev := range spineIDs[as] {
				net.AddLink(prev, id, model.LatencyForDistance(net.Distance(prev, id)), model.Bps1G)
			}
			spineIDs[as] = append(spineIDs[as], id)
			a.Routers = append(a.Routers, id)
		}
		leafIDs := make([]model.NodeID, leaves)
		for l := 0; l < leaves; l++ {
			id := net.AddNode(model.Router, int32(as), ox+float64(l%100)*10, float64(1+l/100)*10)
			u, v := spineIDs[as][l%spines], spineIDs[as][(l+1)%spines]
			net.AddLink(id, u, model.LatencyForDistance(net.Distance(id, u)), model.Bps1G)
			net.AddLink(id, v, model.LatencyForDistance(net.Distance(id, v)), model.Bps1G)
			leafIDs[l] = id
			a.Routers = append(a.Routers, id)
		}
		for h := 0; h < hostsPerAS; h++ {
			leaf := leafIDs[h%leaves]
			id := net.AddNode(model.Host, int32(as), net.Nodes[leaf].X+1, net.Nodes[leaf].Y+1)
			net.AddLink(id, leaf, model.LatencyForDistance(net.Distance(id, leaf)), model.Bps100M)
			a.Hosts = append(a.Hosts, id)
		}
	}
	for as := 1; as < ases; as++ {
		for i := 0; i < 2; i++ {
			lb, rb := spineIDs[as-1][i], spineIDs[as][i]
			lid := net.AddLink(lb, rb, model.LatencyForDistance(net.Distance(lb, rb)), model.Bps10G)
			net.ASes[as-1].Neighbors = append(net.ASes[as-1].Neighbors, model.ASNeighbor{
				AS: int32(as), Rel: model.RelPeer, LocalBorder: lb, RemoteBorder: rb, Link: lid,
			})
			net.ASes[as].Neighbors = append(net.ASes[as].Neighbors, model.ASNeighbor{
				AS: int32(as - 1), Rel: model.RelPeer, LocalBorder: rb, RemoteBorder: lb, Link: lid,
			})
		}
	}
	return net
}
