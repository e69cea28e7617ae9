// Package mabrite implements the paper's maBrite topology generator
// (Section 5.1.2): an Internet-like multi-AS topology with automatic,
// realistic BGP routing configuration. It follows the paper's procedure:
//
//  1. generate an AS-level topology following the power law,
//  2. classify ASes by connection degree (Core / Regional ISP / Stub),
//  3. decide AS relationships (provider-customer between levels, peer-peer
//     within a level), guaranteeing every non-Core AS a provider path to a
//     Core and that Core ASes form a clique (the Dense Core),
//  4. set import policies (prefer customer over peer over provider routes —
//     encoded as relationships consumed by package bgp),
//  5. set export policies (no-valley: never export peer/provider routes to
//     peers or providers), and
//  6. create a power-law OSPF topology inside every AS, with default routing
//     to a border router in Stub ASes.
package mabrite

import (
	"fmt"
	"math/rand"
	"sort"

	"massf/internal/model"
)

// Options configures Generate.
type Options struct {
	// ASes is the number of autonomous systems. Paper scale: 100.
	ASes int
	// RoutersPerAS is the router count inside each AS. Paper scale: 200.
	RoutersPerAS int
	// Hosts is the number of end hosts, attached to Stub ASes only (they
	// are where the paper puts background traffic and live-traffic agents).
	Hosts int
	// Seed makes generation deterministic.
	Seed int64
}

const (
	// edgesPerAS is the AS-level preferential attachment parameter.
	edgesPerAS = 2
	// edgesPerRouter is the intra-AS preferential attachment parameter.
	edgesPerRouter = 2
	// coreFraction is the fraction of ASes classified Core ("top 2%" in
	// the Internet hierarchy literature), minimum 2 ASes.
	coreFraction = 0.03
	// plane is the square plane side.
	plane = model.PlaneMiles
)

// Generate builds the multi-AS network with relationships and default
// routing configured. The network is connected and passes
// model.Network.Validate.
func Generate(opts Options) (*model.Network, error) {
	if opts.ASes < 3 {
		return nil, fmt.Errorf("mabrite: need ≥ 3 ASes, got %d", opts.ASes)
	}
	if opts.RoutersPerAS < 2 {
		return nil, fmt.Errorf("mabrite: need ≥ 2 routers per AS, got %d", opts.RoutersPerAS)
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// Step 1: AS-level power-law topology.
	asAdj := powerLawAdj(opts.ASes, edgesPerAS, rng)

	// Step 2: classify by connection degree.
	class := classify(asAdj)

	// Step 3a: Core clique — add missing Core–Core adjacencies.
	var cores []int
	for as, c := range class {
		if c == model.ASCore {
			cores = append(cores, as)
		}
	}
	for i := 0; i < len(cores); i++ {
		for j := i + 1; j < len(cores); j++ {
			addAdj(asAdj, cores[i], cores[j])
		}
	}

	// Step 3b: relationships from classes.
	rel := decideRelationships(asAdj, class)

	// Step 3c: guarantee every non-Core AS a provider chain to a Core.
	ensureProviderPath(asAdj, class, rel, cores, rng)

	// Step 6 (geometry first): AS centers and per-class scatter radii.
	centers := make([][2]float64, opts.ASes)
	margin := plane * 0.08
	for i := range centers {
		centers[i] = [2]float64{
			margin + rng.Float64()*(plane-2*margin),
			margin + rng.Float64()*(plane-2*margin),
		}
	}
	radius := func(c model.ASClass) float64 {
		switch c {
		case model.ASCore:
			return plane * 0.18 // Tier-1s span the continent
		case model.ASRegional:
			return 150
		default:
			return 60
		}
	}

	// Intra-AS topologies.
	net := &model.Network{}
	net.ASes = make([]model.AS, opts.ASes)
	routerDegree := map[model.NodeID]int{}
	for as := 0; as < opts.ASes; as++ {
		a := &net.ASes[as]
		a.ID = int32(as)
		a.Class = class[as]
		a.DefaultBorder = -1
		r := radius(class[as])
		// Each AS is built from points of presence (POPs) scattered over
		// its footprint; routers cluster tightly around POPs. Intra-POP
		// links are sub-millisecond, inter-POP links are the AS's "long"
		// links — the latency structure the hierarchical partitioner
		// exploits.
		nPOPs := opts.RoutersPerAS / 25
		if nPOPs < 3 {
			nPOPs = 3
		}
		pops := make([][2]float64, nPOPs)
		for p := range pops {
			pops[p] = [2]float64{
				clamp(centers[as][0]+rng.NormFloat64()*r, 0, plane),
				clamp(centers[as][1]+rng.NormFloat64()*r, 0, plane),
			}
		}
		for i := 0; i < opts.RoutersPerAS; i++ {
			p := pops[rng.Intn(nPOPs)]
			x := clamp(p[0]+rng.NormFloat64()*20, 0, plane)
			y := clamp(p[1]+rng.NormFloat64()*20, 0, plane)
			id := net.AddNode(model.Router, int32(as), x, y)
			a.Routers = append(a.Routers, id)
		}
		// Power-law intra-AS links (OSPF domain).
		targets := []model.NodeID{a.Routers[0]}
		for i := 1; i < len(a.Routers); i++ {
			u := a.Routers[i]
			m := min(edgesPerRouter, i)
			chosen := map[model.NodeID]bool{}
			for e := 0; e < m; e++ {
				v := targets[rng.Intn(len(targets))]
				if v == u || chosen[v] {
					continue
				}
				chosen[v] = true
				lat := model.LatencyForDistance(net.Distance(u, v))
				net.AddLink(u, v, lat, model.Bps1G)
				routerDegree[u]++
				routerDegree[v]++
				targets = append(targets, u, v)
			}
			if len(chosen) == 0 { // guarantee connectivity
				v := a.Routers[i-1]
				lat := model.LatencyForDistance(net.Distance(u, v))
				net.AddLink(u, v, lat, model.Bps1G)
				routerDegree[u]++
				routerDegree[v]++
				targets = append(targets, u, v)
			}
		}
	}

	// Inter-AS links between border routers (highest intra-degree router,
	// load-spread over repeated adjacencies).
	borderUse := map[model.NodeID]int{}
	pickBorder := func(as int) model.NodeID {
		best := net.ASes[as].Routers[0]
		bestScore := -1 << 30
		for _, r := range net.ASes[as].Routers {
			score := routerDegree[r]*4 - borderUse[r]*8
			if score > bestScore {
				best, bestScore = r, score
			}
		}
		borderUse[best]++
		return best
	}
	for as := 0; as < opts.ASes; as++ {
		for _, nb := range sortedNeighbors(asAdj[as]) {
			if nb < as {
				continue // handle each AS pair once
			}
			lb := pickBorder(as)
			rb := pickBorder(nb)
			bw := int64(model.Bps1G)
			if class[as] == model.ASCore && class[nb] == model.ASCore {
				bw = model.Bps10G
			}
			lat := model.LatencyForDistance(net.Distance(lb, rb))
			lid := net.AddLink(lb, rb, lat, bw)
			net.ASes[as].Neighbors = append(net.ASes[as].Neighbors, model.ASNeighbor{
				AS: int32(nb), Rel: rel[pairKey(as, nb)], LocalBorder: lb, RemoteBorder: rb, Link: lid,
			})
			net.ASes[nb].Neighbors = append(net.ASes[nb].Neighbors, model.ASNeighbor{
				AS: int32(as), Rel: invert(rel[pairKey(as, nb)]), LocalBorder: rb, RemoteBorder: lb, Link: lid,
			})
		}
	}

	// Step 6c/6d: default routing in Stub ASes — default border is the
	// border router toward the first provider (fall back to any neighbor).
	for as := range net.ASes {
		a := &net.ASes[as]
		if a.Class != model.ASStub || len(a.Neighbors) == 0 {
			continue
		}
		def := a.Neighbors[0].LocalBorder
		for _, nb := range a.Neighbors {
			if nb.Rel == model.RelProvider {
				def = nb.LocalBorder
				break
			}
		}
		a.DefaultBorder = def
	}

	// Hosts on Stub ASes.
	var stubs []int
	for as := range net.ASes {
		if net.ASes[as].Class == model.ASStub {
			stubs = append(stubs, as)
		}
	}
	if len(stubs) == 0 {
		stubs = append(stubs, 0)
	}
	for h := 0; h < opts.Hosts; h++ {
		as := stubs[rng.Intn(len(stubs))]
		a := &net.ASes[as]
		r := a.Routers[rng.Intn(len(a.Routers))]
		x := clamp(net.Nodes[r].X+rng.NormFloat64()*2, 0, plane)
		y := clamp(net.Nodes[r].Y+rng.NormFloat64()*2, 0, plane)
		hid := net.AddNode(model.Host, int32(as), x, y)
		lat := model.LatencyForDistance(net.Distance(hid, r))
		net.AddLink(hid, r, lat, model.Bps100M)
		a.Hosts = append(a.Hosts, hid)
	}
	return net, nil
}

// powerLawAdj builds a BA adjacency structure over n ASes.
func powerLawAdj(n, m int, rng *rand.Rand) []map[int]bool {
	adj := make([]map[int]bool, n)
	for i := range adj {
		adj[i] = map[int]bool{}
	}
	targets := []int{0}
	addAdj2 := func(u, v int) {
		if u != v && !adj[u][v] {
			adj[u][v] = true
			adj[v][u] = true
			targets = append(targets, u, v)
		}
	}
	for i := 1; i < n; i++ {
		mi := m
		// Most real ASes are single-homed customers; attach the majority
		// with one link so the degree-1-or-2 Stub class dominates, while
		// the rest are multi-homed (exercising default/backup routing).
		if rng.Float64() < 0.6 {
			mi = 1
		}
		if mi > i {
			mi = i
		}
		added := 0
		for tries := 0; added < mi && tries < 20*mi; tries++ {
			v := targets[rng.Intn(len(targets))]
			if v != i && !adj[i][v] {
				addAdj2(i, v)
				added++
			}
		}
		if added == 0 {
			addAdj2(i, i-1)
		}
	}
	return adj
}

func addAdj(adj []map[int]bool, u, v int) {
	if u == v {
		return
	}
	adj[u][v] = true
	adj[v][u] = true
}

// classify assigns Core to the top coreFraction ASes by degree (minimum 2),
// Stub to degree ≤ 2 (the ~90% "Customers"), Regional to the rest.
func classify(adj []map[int]bool) []model.ASClass {
	n := len(adj)
	type dn struct{ deg, as int }
	byDeg := make([]dn, n)
	for i := range adj {
		byDeg[i] = dn{len(adj[i]), i}
	}
	sort.Slice(byDeg, func(i, j int) bool {
		if byDeg[i].deg != byDeg[j].deg {
			return byDeg[i].deg > byDeg[j].deg
		}
		return byDeg[i].as < byDeg[j].as
	})
	numCore := int(coreFraction * float64(n))
	if numCore < 2 {
		numCore = 2
	}
	class := make([]model.ASClass, n)
	core := map[int]bool{}
	for i := 0; i < numCore; i++ {
		core[byDeg[i].as] = true
	}
	for i := 0; i < n; i++ {
		switch {
		case core[i]:
			class[i] = model.ASCore
		case len(adj[i]) <= 2:
			class[i] = model.ASStub
		default:
			class[i] = model.ASRegional
		}
	}
	return class
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// decideRelationships maps each AS adjacency to a relationship following
// step 3 of the paper: provider-customer across levels (the higher class is
// the provider), peer-peer within a level. The returned map is keyed by the
// ordered pair and holds the relationship *from the lower-numbered AS's
// point of view*.
func decideRelationships(adj []map[int]bool, class []model.ASClass) map[[2]int]model.Relationship {
	rel := map[[2]int]model.Relationship{}
	for a := range adj {
		for b := range adj[a] {
			if b < a {
				continue
			}
			k := pairKey(a, b)
			ca, cb := class[a], class[b]
			switch {
			case ca == cb:
				rel[k] = model.RelPeer
			case ca > cb:
				// a is the higher level → a is b's provider → from a's
				// view b is a customer... the map holds the LOWER AS's
				// view; a < b here, so a's view: b is my customer.
				rel[k] = model.RelCustomer
			default:
				rel[k] = model.RelProvider
			}
		}
	}
	return rel
}

func invert(r model.Relationship) model.Relationship {
	switch r {
	case model.RelProvider:
		return model.RelCustomer
	case model.RelCustomer:
		return model.RelProvider
	default:
		return model.RelPeer
	}
}

// relFrom returns the relationship from AS a toward AS b given the
// lower-AS-view map.
func relFrom(rel map[[2]int]model.Relationship, a, b int) model.Relationship {
	r := rel[pairKey(a, b)]
	if a < b {
		return r
	}
	return invert(r)
}

// ensureProviderPath adds provider links to a Core for any AS that cannot
// reach a Core by walking up provider edges (paper: "we must guarantee that
// every non-Core AS has a path including Provider-and-Customer links to a
// Core AS").
func ensureProviderPath(adj []map[int]bool, class []model.ASClass, rel map[[2]int]model.Relationship, cores []int, rng *rand.Rand) {
	n := len(adj)
	// covered[a] = a can reach a Core via provider chains. Propagate from
	// cores downward along provider→customer edges.
	covered := make([]bool, n)
	queue := append([]int(nil), cores...)
	for _, c := range cores {
		covered[c] = true
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for c := range adj[p] {
			// p is c's provider?
			if !covered[c] && relFrom(rel, c, p) == model.RelProvider {
				covered[c] = true
				queue = append(queue, c)
			}
		}
	}
	for a := 0; a < n; a++ {
		if covered[a] {
			continue
		}
		core := cores[rng.Intn(len(cores))]
		addAdj(adj, a, core)
		k := pairKey(a, core)
		if a < core {
			rel[k] = model.RelProvider // a's view: core is my provider
		} else {
			rel[k] = model.RelCustomer // a's view: core is... inverted below
		}
		// Normalize: map holds lower AS's view; core must be the provider.
		lo := k[0]
		if lo == a {
			rel[k] = model.RelProvider
		} else {
			rel[k] = model.RelCustomer
		}
		covered[a] = true
		// Newly covered AS may cover its own customers; rerun is cheap and
		// simpler than incremental propagation at n ≈ 100.
	}
}

func sortedNeighbors(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
