// Package topology generates single-AS router-level network topologies in
// the style of the (adapted) BRITE generator the paper uses: degree-based
// preferential attachment following the power law, with routers placed on a
// geographic plane so that link latencies derive from physical distance.
//
// Routers cluster into "cities" (points of presence): city sizes themselves
// follow a rich-get-richer distribution, and intra-city links have
// sub-millisecond latencies while inter-city backbone links run tens of
// milliseconds. This latency structure is what makes the paper's Minimum
// Link Latency problem real: a partitioner that ignores latency will cut
// cheap intra-city edges and destroy parallelism (Section 3.4.1).
package topology

import (
	"fmt"
	"math"
	"math/rand"

	"massf/internal/model"
)

// FlatOptions configures GenerateFlat.
type FlatOptions struct {
	// Routers is the number of routers. Paper scale: 20,000.
	Routers int
	// Hosts is the number of end hosts attached to routers. Paper: 10,000.
	Hosts int
	// Seed makes generation deterministic.
	Seed int64
}

const (
	// edgesPerNode is the number of links each new router adds
	// (preferential attachment m).
	edgesPerNode = 2
	// cityRadiusMiles is the standard deviation of router placement
	// around its city center (metro + suburban POP spread).
	cityRadiusMiles = 60.0
	// localityMiles is the e-folding distance of the locality bias: when
	// a new router picks neighbors, a candidate at distance d is weighted
	// by exp(-d/localityMiles).
	localityMiles = 600.0
)

// GenerateFlat builds a single-AS network of opts.Routers routers and
// opts.Hosts hosts. The result always forms a single connected component and
// a single AS with id 0.
func GenerateFlat(opts FlatOptions) (*model.Network, error) {
	if opts.Routers < 2 {
		return nil, fmt.Errorf("topology: need ≥ 2 routers, got %d", opts.Routers)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	net := &model.Network{}

	// Routers/25 geographic clusters, at least 6: enough that a
	// partitioner has many contractible units to work with (the paper's
	// POP structure: hundreds of metro areas for a Tier-1's 20,000
	// routers).
	cities := max(opts.Routers/25, 6)
	centers := cityCenters(cities, rng)
	citySize := make([]int, cities)

	// Place routers: city chosen rich-get-richer so city sizes follow a
	// heavy-tailed distribution like real metro areas.
	routerCity := make([]int, opts.Routers)
	for i := 0; i < opts.Routers; i++ {
		c := pickCity(citySize, i, rng)
		citySize[c]++
		routerCity[i] = c
		x := clamp(centers[c][0]+rng.NormFloat64()*cityRadiusMiles, 0, model.PlaneMiles)
		y := clamp(centers[c][1]+rng.NormFloat64()*cityRadiusMiles, 0, model.PlaneMiles)
		net.AddNode(model.Router, 0, x, y)
	}

	// Preferential attachment with locality bias.
	degree := make([]int, opts.Routers)
	targets := make([]int32, 0, 2*opts.Routers*edgesPerNode)
	addEdge := func(u, v int) {
		lat := model.LatencyForDistance(net.Distance(model.NodeID(u), model.NodeID(v)))
		net.AddLink(model.NodeID(u), model.NodeID(v), lat, model.Bps1G)
		degree[u]++
		degree[v]++
		targets = append(targets, int32(u), int32(v))
	}
	addEdge(0, 1)
	for i := 2; i < opts.Routers; i++ {
		m := min(edgesPerNode, i)
		chosen := map[int32]bool{}
		for e := 0; e < m; e++ {
			best := int32(-1)
			bestScore := -1.0
			// Sample degree-biased candidates, keep the locality-weighted
			// best. More samples → stronger locality preference.
			for s := 0; s < 8; s++ {
				cand := targets[rng.Intn(len(targets))]
				if chosen[cand] || int(cand) == i {
					continue
				}
				d := net.Distance(model.NodeID(i), model.NodeID(cand))
				score := math.Exp(-d / localityMiles)
				if score > bestScore {
					best, bestScore = cand, score
				}
			}
			if best < 0 {
				// Degenerate fallback: any unchosen earlier node.
				for v := 0; v < i; v++ {
					if !chosen[int32(v)] {
						best = int32(v)
						break
					}
				}
			}
			if best < 0 {
				break
			}
			chosen[best] = true
			addEdge(i, int(best))
		}
	}

	// Upgrade backbone links: both endpoints in the top degree decile.
	threshold := degreePercentile(degree, 0.9)
	for li := range net.Links {
		l := &net.Links[li]
		if degree[l.A] >= threshold && degree[l.B] >= threshold {
			l.Bandwidth = model.Bps10G
		}
	}

	// Attach hosts: each host picks a random router and sits within a few
	// miles of it (access links are short and slow).
	as := model.AS{ID: 0, DefaultBorder: -1}
	for i := 0; i < opts.Routers; i++ {
		as.Routers = append(as.Routers, model.NodeID(i))
	}
	for h := 0; h < opts.Hosts; h++ {
		r := model.NodeID(rng.Intn(opts.Routers))
		x := clamp(net.Nodes[r].X+rng.NormFloat64()*2, 0, model.PlaneMiles)
		y := clamp(net.Nodes[r].Y+rng.NormFloat64()*2, 0, model.PlaneMiles)
		hid := net.AddNode(model.Host, 0, x, y)
		lat := model.LatencyForDistance(net.Distance(hid, r))
		net.AddLink(hid, r, lat, model.Bps100M)
		as.Hosts = append(as.Hosts, hid)
	}
	net.ASes = []model.AS{as}
	return net, nil
}

// cityCenters spreads n city centers over the plane with a margin so
// Gaussian scatter rarely clips.
func cityCenters(n int, rng *rand.Rand) [][2]float64 {
	centers := make([][2]float64, n)
	const plane = model.PlaneMiles
	margin := plane * 0.05
	for i := range centers {
		centers[i] = [2]float64{
			margin + rng.Float64()*(plane-2*margin),
			margin + rng.Float64()*(plane-2*margin),
		}
	}
	return centers
}

// pickCity chooses a city index with probability proportional to
// size+1 — a rich-get-richer process producing heavy-tailed city sizes.
func pickCity(size []int, placed int, rng *rand.Rand) int {
	total := placed + len(size)
	r := rng.Intn(total)
	for c, s := range size {
		r -= s + 1
		if r < 0 {
			return c
		}
	}
	return len(size) - 1
}

// degreePercentile returns the degree value at the given percentile.
func degreePercentile(degree []int, p float64) int {
	if len(degree) == 0 {
		return 0
	}
	sorted := append([]int(nil), degree...)
	// Counting into a histogram avoids pulling in sort for hot paths.
	maxDeg := 0
	for _, d := range sorted {
		if d > maxDeg {
			maxDeg = d
		}
	}
	hist := make([]int, maxDeg+1)
	for _, d := range sorted {
		hist[d]++
	}
	rank := int(p * float64(len(sorted)))
	cum := 0
	for d, c := range hist {
		cum += c
		if cum > rank {
			return d
		}
	}
	return maxDeg
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
