// Graph construction for the mapping approaches: how the virtual network's
// structure, static capacity information, and measured traffic profiles
// become partitioner node and edge weights (Sections 3.2–3.4 of the paper).
package core

import (
	"massf/internal/graph"
	"massf/internal/model"
	"massf/internal/profile"
)

// Edge-weight conversion constants. TOP/PROF use w ∝ 1/latency; the tuned
// TOP2/PROF2 conversion is ∝ 1/latency², which makes sub-millisecond links
// so heavy that the partitioner practically never cuts them — the paper's
// manual tuning "so partitions are less likely to across edges with small
// link latency" (Section 4.3). Both are floored at 1 so every edge stays
// cuttable in principle.
const (
	latK  = int64(1_000_000_000)             // 1/latency numerator (ns)
	latK2 = int64(1_000_000_000_000_000_000) // 1/latency² numerator (ns²)
)

// latencyWeight is the TOP/PROF conversion.
func latencyWeight(latencyNS int64) int64 {
	w := latK / latencyNS
	if w < 1 {
		return 1
	}
	return w
}

// latencyWeight2 is the tuned TOP2/PROF2 conversion.
func latencyWeight2(latencyNS int64) int64 {
	w := latK2 / (latencyNS * latencyNS)
	if w < 1 {
		return 1
	}
	return w
}

// placementBoost is PLACE's weight multiplier for application hosts.
const placementBoost = 50

// BuildGraph converts the network into the weighted graph the partitioner
// consumes under the given approach:
//
//   - Topology-based (TOP, TOP2, HTOP): each node is weighted with the
//     total bandwidth in and out of it (scaled to Mbit/s); edges carry the
//     latency-derived weight.
//   - Placement-aware (PLACE): topology weights, with the application
//     hosts and their attachment routers boosted by placementBoost —
//     the static application-placement information of the authors' prior
//     work.
//   - Profile-based (PROF, PROF2, HPROF): node weights are measured event
//     counts; edge weights additionally scale with measured link traffic,
//     so heavily used links resist cutting.
//
// Hierarchical approaches use the plain (non-tuned) latency conversion:
// the contraction, not edge-weight tuning, provides their MLL guarantee.
func BuildGraph(net *model.Network, a Approach, prof *profile.Profile, cfg Config) *graph.Graph {
	cfg.setDefaults()
	g := graph.New(len(net.Nodes))
	profiled := a.ProfileBased()
	tuned := a == TOP2 || a == PROF2

	// Node weights.
	if profiled {
		for i := range g.NodeWeight {
			g.NodeWeight[i] = prof.NodeWeight(i)
		}
	} else {
		for i := range net.Links {
			l := &net.Links[i]
			mbps := l.Bandwidth / 1_000_000
			if mbps < 1 {
				mbps = 1
			}
			g.NodeWeight[l.A] += mbps
			g.NodeWeight[l.B] += mbps
		}
		for i := range g.NodeWeight {
			if g.NodeWeight[i] < 1 {
				g.NodeWeight[i] = 1
			}
		}
		if a == PLACE {
			for _, h := range cfg.AppHosts {
				g.NodeWeight[h] *= placementBoost
				for _, nb := range net.Neighbors(h) {
					g.NodeWeight[nb] *= placementBoost / 2
				}
			}
		}
	}

	// Edge weights.
	for i := range net.Links {
		l := &net.Links[i]
		var w int64
		if tuned {
			w = latencyWeight2(l.Latency)
		} else {
			w = latencyWeight(l.Latency)
		}
		if profiled {
			// Traffic-aware component: cutting a busy link costs remote
			// event traffic, so its weight grows with measured load
			// (kilobytes carried during the profiling run).
			w += prof.LinkBytes(i) / 1024
		}
		g.AddEdge(int(l.A), int(l.B), w, l.Latency)
	}
	return g
}
