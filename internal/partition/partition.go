// Package partition implements a multilevel k-way graph partitioner in the
// style of METIS, which the paper uses inside MaSSF. The partitioner
// minimizes the weighted edge cut subject to a node-weight balance
// constraint, via the classic three phases:
//
//  1. coarsening by heavy-edge matching until the graph is small,
//  2. initial partitioning by recursive greedy-growing bisection, and
//  3. uncoarsening with greedy boundary (Kernighan–Lin/FM style) refinement
//     at every level.
//
// The paper's observation that "METIS does a better job for smaller graphs"
// (Section 4.3) holds for this implementation too, and is exercised by an
// ablation bench.
package partition

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"massf/internal/graph"
)

// Options configures a partitioning run.
type Options struct {
	// Parts is the number of parts k. Must be ≥ 1.
	Parts int
	// Imbalance is the allowed relative overweight ε: every part must weigh
	// at most (1+ε)·total/k (unless a single node already exceeds that).
	// Default 0.05.
	Imbalance float64
	// Seed makes runs deterministic. Runs with the same seed and input
	// produce identical partitions.
	Seed int64
	// DisableRefinement turns off boundary refinement during uncoarsening
	// (ablation switch).
	DisableRefinement bool
}

// trials is the number of initial-partition attempts per bisection; the
// best cut wins.
const trials = 4

func (o *Options) setDefaults() {
	if o.Imbalance <= 0 {
		o.Imbalance = 0.05
	}
}

// Partition splits g into opts.Parts parts, returning part[i] ∈ [0, Parts)
// for every node i. It returns an error for invalid options.
func Partition(g *graph.Graph, opts Options) ([]int32, error) {
	if opts.Parts < 1 {
		return nil, fmt.Errorf("partition: invalid part count %d", opts.Parts)
	}
	if g.Len() == 0 {
		return nil, errors.New("partition: empty graph")
	}
	opts.setDefaults()
	n := g.Len()
	if opts.Parts == 1 {
		return make([]int32, n), nil
	}
	if opts.Parts >= n {
		// One node per part; surplus parts stay empty.
		part := make([]int32, n)
		for i := range part {
			part[i] = int32(i)
		}
		return part, nil
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.partition(g, opts), nil
}

// partition is Partition on valid options and a graph of more nodes than
// parts, in s.
func (s *scratch) partition(g *graph.Graph, opts Options) []int32 {
	rng := rand.New(rand.NewSource(opts.Seed))
	s.list.Reset() // the last call's coarse graphs are dead
	s.list.Reserve(g.Len(), g.NumEdges())

	// Phase 1: coarsen.
	levels := []*level{{g: g}}
	for levels[len(levels)-1].g.Len() > max(64, 8*opts.Parts) {
		cur := levels[len(levels)-1]
		next := coarsen(cur.g, rng, s)
		if next == nil || float64(next.g.Len()) > 0.95*float64(cur.g.Len()) {
			break // matching stalled
		}
		cur.next = next
		levels = append(levels, next)
	}

	s.list.Spare() // the ladder is built

	// Phase 2: initial k-way partition of the coarsest graph.
	coarsest := levels[len(levels)-1].g
	part := initialKWay(coarsest, opts, rng, s)

	// Phase 3: uncoarsen and refine. Rebalancing runs even when refinement
	// is disabled: the balance constraint is part of Partition's contract,
	// the cut-improving moves are the ablatable part.
	for i := len(levels) - 1; i >= 0; i-- {
		if !opts.DisableRefinement {
			refineKWay(levels[i].g, part, opts, rng, s)
		}
		rebalance(levels[i].g, part, opts, s)
		if i > 0 {
			// Project one level up: levels[i-1].next == levels[i].
			fine := levels[i-1]
			finePart := make([]int32, fine.g.Len())
			for v := range finePart {
				finePart[v] = part[fine.next.fineToCoarse[v]]
			}
			part = finePart
		}
	}
	fillEmpty(g, part, opts.Parts, s)
	return part
}

// fillEmpty gives every empty part, in id order, one node: from the part
// with the most nodes (lowest id on a tie), the node whose move cuts the
// least edge weight (lowest id on a tie). The graph has more nodes than
// parts, so while a part is empty the donor holds at least two.
func fillEmpty(g *graph.Graph, part []int32, k int, s *scratch) {
	members := s.memberLists(part, k)
	for p := range members {
		if len(members[p]) > 0 {
			continue
		}
		donor := 0
		for q := range members {
			if len(members[q]) > len(members[donor]) {
				donor = q
			}
		}
		best := int32(-1)
		var bestCost int64
		for _, v := range members[donor] {
			var cost int64
			for _, e := range g.Adj[v] {
				if part[e.To] == int32(donor) {
					cost += e.Weight
				}
			}
			if best < 0 || cost < bestCost || (cost == bestCost && v < best) {
				best, bestCost = v, cost
			}
		}
		s.moveMember(members, move{best, int32(donor), int32(p)})
		part[best] = int32(p)
	}
}

// level is one rung of the multilevel ladder.
type level struct {
	g            *graph.Graph
	fineToCoarse []int32 // for levels > 0: mapping from the finer graph
	next         *level
}

// scratch is the working memory of a Partition call. It is pooled, so the
// hundreds of calls of one T_mll sweep reuse it; every buffer grows to the
// largest graph seen and is never cleared wholesale.
type scratch struct {
	list         graph.EdgeList // builds the coarse graphs
	order, match []int32
	// sums is coarsen's weight to each unmatched neighbor, growRegion's
	// frontier gains and refineKWay's weight into each part.
	sums      sums
	inSet     set     // bisect: the nodes being split
	sides     [2]set  // bisect: the trial's side 0 and the best one so far
	rest      []int32 // bisect: the right half, while the left one is compacted
	partW     []int64
	members   [][]int32 // rebalance: each part's nodes
	memberPos []int32   // rebalance: v's index in members[part[v]]
	moves     []move    // rebalance: the moves since the checkpoint
	seen      set
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// set is an epoch-marked set of ids: v is in it iff mark[v] == epoch, so
// emptying it is one increment rather than a clear.
type set struct {
	mark  []uint32
	epoch uint32
}

// reset empties the set and makes room for ids in [0, n).
func (s *set) reset(n int) {
	if len(s.mark) < n {
		s.mark = make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale marks could match again
		clear(s.mark)
		s.epoch = 1
	}
}

func (s *set) has(v int32) bool { return s.mark[v] == s.epoch }
func (s *set) add(v int32)      { s.mark[v] = s.epoch }
func (s *set) remove(v int32)   { s.mark[v] = 0 }

// sums holds an int64 total per id for the ids added to since reset,
// listed in keys in first-touch order; like set, it empties in O(1).
type sums struct {
	live set
	val  []int64
	keys []int32
	pos  []int32 // pos[id]: id's index in keys
}

// reset empties the sums and makes room for ids in [0, n).
func (a *sums) reset(n int) {
	a.live.reset(n)
	a.val = grow(a.val, n)
	a.pos = grow(a.pos, n)
	a.keys = a.keys[:0]
}

func (a *sums) add(id int32, w int64) {
	if !a.live.has(id) {
		a.live.add(id)
		a.pos[id] = int32(len(a.keys))
		a.keys = append(a.keys, id)
		a.val[id] = 0
	}
	a.val[id] += w
}

// get returns id's total, 0 if it was not added to.
func (a *sums) get(id int32) int64 {
	if a.live.has(id) {
		return a.val[id]
	}
	return 0
}

// remove drops id, if present.
func (a *sums) remove(id int32) {
	if !a.live.has(id) {
		return
	}
	a.live.remove(id)
	i, last := a.pos[id], a.keys[len(a.keys)-1]
	a.keys[i] = last
	a.pos[last] = i
	a.keys = a.keys[:len(a.keys)-1]
}

// grow returns buf resliced to length n, reallocating only when it is too
// small. The contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// perm returns rng.Perm(n) in scratch, made with rng.Perm's draws in
// rng.Perm's order (math/rand keeps that algorithm for compatibility), so
// the generator's stream is what rng.Perm would leave.
func (s *scratch) perm(rng *rand.Rand, n int) []int32 {
	m := grow(s.order, n)
	s.order = m
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = int32(i)
	}
	return m
}

// coarsen performs one heavy-edge-matching pass and returns the coarse
// level, or nil if no edges remain to match.
func coarsen(g *graph.Graph, rng *rand.Rand, s *scratch) *level {
	n := g.Len()
	match := grow(s.match, n)
	s.match = match
	for i := range match {
		match[i] = -1
	}
	order := s.perm(rng, n)
	// Heavy-edge matching: match each unmatched node with its unmatched
	// neighbor of maximum aggregate edge weight, the lowest id on a tie.
	agg := &s.sums
	for _, u := range order {
		if match[u] >= 0 {
			continue
		}
		agg.reset(n)
		for _, e := range g.Adj[u] {
			if match[e.To] < 0 {
				agg.add(e.To, e.Weight)
			}
		}
		best := int32(-1)
		var bestW int64 = -1
		for _, v := range agg.keys {
			if w := agg.val[v]; w > bestW || (w == bestW && v < best) {
				best, bestW = v, w
			}
		}
		if best >= 0 {
			match[u] = best
			match[best] = int32(u)
		} else {
			match[u] = int32(u) // matched with itself
		}
	}
	// Number coarse nodes.
	fineToCoarse := make([]int32, n)
	for i := range fineToCoarse {
		fineToCoarse[i] = -1
	}
	var count int32
	for i := 0; i < n; i++ {
		if fineToCoarse[i] >= 0 {
			continue
		}
		fineToCoarse[i] = count
		m := match[i]
		if m >= 0 && int(m) != i {
			fineToCoarse[m] = count
		}
		count++
	}
	if int(count) == n {
		return nil
	}
	weight := make([]int64, count)
	for i := 0; i < n; i++ {
		weight[fineToCoarse[i]] += g.NodeWeight[i]
	}
	for u := 0; u < n; u++ {
		cu := fineToCoarse[u]
		for _, e := range g.Adj[u] {
			if int(e.To) >= u { // each undirected edge once
				s.list.Add(cu, fineToCoarse[e.To], e.Weight, e.Latency)
			}
		}
	}
	return &level{g: s.list.Build(weight), fineToCoarse: fineToCoarse}
}

// initialKWay produces a k-way partition of the coarsest graph by recursive
// bisection with proportional weight targets.
func initialKWay(g *graph.Graph, opts Options, rng *rand.Rand, s *scratch) []int32 {
	part := make([]int32, g.Len())
	nodes := make([]int32, g.Len())
	for i := range nodes {
		nodes[i] = int32(i)
	}
	recursiveBisect(g, nodes, 0, opts.Parts, part, opts, rng, s)
	return part
}

// recursiveBisect assigns the nodes in `nodes` to parts [lo, lo+k).
func recursiveBisect(g *graph.Graph, nodes []int32, lo, k int, part []int32, opts Options, rng *rand.Rand, s *scratch) {
	if k == 1 {
		for _, v := range nodes {
			part[v] = int32(lo)
		}
		return
	}
	k1 := k / 2
	k2 := k - k1
	var total int64
	for _, v := range nodes {
		total += g.NodeWeight[v]
	}
	target1 := total * int64(k1) / int64(k)
	left, right := bisect(g, nodes, target1, opts, rng, s)
	recursiveBisect(g, left, lo, k1, part, opts, rng, s)
	recursiveBisect(g, right, lo+k1, k2, part, opts, rng, s)
}

// bisect splits nodes into two sets, the first weighing ≈target1, using
// greedy region growing from several random seeds plus an FM sweep, keeping
// the split with the smallest cut. It reorders nodes in place, stably, into
// left followed by right, and returns the two halves.
func bisect(g *graph.Graph, nodes []int32, target1 int64, opts Options, rng *rand.Rand, s *scratch) (left, right []int32) {
	n := g.Len()
	inSet := &s.inSet
	inSet.reset(n)
	for _, v := range nodes {
		inSet.add(v)
	}
	best, side := &s.sides[0], &s.sides[1]
	var bestCut int64 = -1
	for trial := 0; trial < trials; trial++ {
		side.reset(n)
		growRegion(g, nodes, inSet, side, target1, rng, s)
		fmSweep(g, nodes, inSet, side, target1, opts.Imbalance)
		cut := cutOf(g, nodes, inSet, side)
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			best, side = side, best
		}
	}
	rest := s.rest[:0]
	l := 0
	for _, v := range nodes {
		if best.has(v) {
			nodes[l] = v
			l++
		} else {
			rest = append(rest, v)
		}
	}
	copy(nodes[l:], rest)
	s.rest = rest
	// Guard against degenerate empty sides.
	if l == 0 && len(nodes) > 1 {
		// The last node of right becomes left.
		last := nodes[len(nodes)-1]
		copy(nodes[1:], nodes[:len(nodes)-1])
		nodes[0] = last
		l = 1
	}
	if l == len(nodes) && l > 1 {
		l-- // the last node of left becomes right
	}
	return nodes[:l], nodes[l:]
}

// growRegion grows side 0 (the members of side) from a random seed, always
// absorbing the frontier node with maximum connectivity into the region,
// lowest id on a tie, until the target weight is reached.
func growRegion(g *graph.Graph, nodes []int32, inSet, side *set, target int64, rng *rand.Rand, s *scratch) {
	if len(nodes) == 0 || target <= 0 {
		return
	}
	// The frontier: gain[v] = total edge weight from v into the region.
	gain := &s.sums
	gain.reset(g.Len())
	addNeighbors := func(u int32) {
		for _, e := range g.Adj[u] {
			if inSet.has(e.To) && !side.has(e.To) {
				gain.add(e.To, e.Weight)
			}
		}
	}
	seed := nodes[rng.Intn(len(nodes))]
	side.add(seed)
	weight := g.NodeWeight[seed]
	addNeighbors(seed)
	for weight < target {
		var best int32 = -1
		var bestGain int64 = -1
		for _, v := range gain.keys {
			if gw := gain.val[v]; gw > bestGain || (gw == bestGain && v < best) {
				best, bestGain = v, gw
			}
		}
		if best < 0 {
			// Region's component exhausted; jump to an unreached node.
			var jump int32 = -1
			for _, v := range nodes {
				if !side.has(v) {
					jump = v
					break
				}
			}
			if jump < 0 {
				break
			}
			best = jump
		}
		side.add(best)
		weight += g.NodeWeight[best]
		gain.remove(best)
		addNeighbors(best)
	}
}

// fmSweep runs greedy boundary moves between the two sides of a bisection,
// accepting the best prefix of moves (single FM pass, repeated while it
// improves).
func fmSweep(g *graph.Graph, nodes []int32, inSet, side *set, target1 int64, eps float64) {
	maxSide0 := int64(float64(target1) * (1 + eps))
	minSide0 := int64(float64(target1) * (1 - eps))
	w0 := int64(0)
	for _, v := range nodes {
		if side.has(v) {
			w0 += g.NodeWeight[v]
		}
	}
	for pass := 0; pass < 4; pass++ {
		improved := false
		for _, v := range nodes {
			in := side.has(v)
			var internal, external int64
			for _, e := range g.Adj[v] {
				if !inSet.has(e.To) {
					continue
				}
				if side.has(e.To) == in {
					internal += e.Weight
				} else {
					external += e.Weight
				}
			}
			gain := external - internal
			if gain <= 0 {
				continue
			}
			nw := g.NodeWeight[v]
			if in {
				if w0-nw < minSide0 {
					continue
				}
				side.remove(v)
				w0 -= nw
			} else {
				if w0+nw > maxSide0 {
					continue
				}
				side.add(v)
				w0 += nw
			}
			improved = true
		}
		if !improved {
			break
		}
	}
}

// cutOf returns the cut weight of the bisection described by side over the
// induced subgraph on inSet.
func cutOf(g *graph.Graph, nodes []int32, inSet, side *set) int64 {
	var cut int64
	for _, u := range nodes {
		in := side.has(u)
		for _, e := range g.Adj[u] {
			if e.To <= u || !inSet.has(e.To) {
				continue
			}
			if side.has(e.To) != in {
				cut += e.Weight
			}
		}
	}
	return cut
}

// refineKWay improves an existing k-way partition by greedy boundary moves:
// each boundary node may move to the adjacent part with the highest positive
// gain, subject to the balance constraint. Among equal gains the lighter
// part wins, and among equally light parts the lowest id. Several passes run
// until no move helps.
func refineKWay(g *graph.Graph, part []int32, opts Options, rng *rand.Rand, s *scratch) {
	n := g.Len()
	k := opts.Parts
	partWeight := partWeights(g, part, k, s)
	total := g.TotalNodeWeight()
	maxW := int64(float64(total) / float64(k) * (1 + opts.Imbalance))
	order := s.perm(rng, n)
	conn := &s.sums // v's edge weight into each adjacent part
	for pass := 0; pass < 8; pass++ {
		moves := 0
		for _, v := range order {
			home := part[v]
			if len(g.Adj[v]) == 0 {
				continue
			}
			conn.reset(k)
			boundary := false
			for _, e := range g.Adj[v] {
				conn.add(part[e.To], e.Weight)
				boundary = boundary || part[e.To] != home
			}
			if !boundary {
				continue
			}
			internal := conn.get(home)
			bestPart := int32(-1)
			var bestGain int64
			nw := g.NodeWeight[v]
			for _, p := range conn.keys {
				if p == home {
					continue
				}
				gain := conn.val[p] - internal
				better := gain > bestGain ||
					(gain == bestGain && bestPart >= 0 && (partWeight[p] < partWeight[bestPart] ||
						partWeight[p] == partWeight[bestPart] && p < bestPart))
				if gain >= 0 && better && partWeight[p]+nw <= maxW {
					// Also allow zero-gain moves that strictly improve
					// balance from an overweight home part.
					if gain == 0 && partWeight[home] <= maxW {
						continue
					}
					bestPart, bestGain = p, gain
				}
			}
			if bestPart >= 0 {
				partWeight[home] -= nw
				partWeight[bestPart] += nw
				part[v] = bestPart
				moves++
			}
		}
		if moves == 0 {
			break
		}
	}
}

// partWeights returns the weight of each of the k parts, in scratch.
func partWeights(g *graph.Graph, part []int32, k int, s *scratch) []int64 {
	w := grow(s.partW, k)
	s.partW = w
	clear(w)
	for v, p := range part {
		w[p] += g.NodeWeight[v]
	}
	return w
}

// move is one rebalance step: node v from part from to part to.
type move struct{ v, from, to int32 }

// rebalance moves nodes out of overweight parts until every part weighs at
// most (1+ε)·total/k, or no single movable node can fix the remaining
// overweight, or 4n moves have been made. Each move takes, from the
// heaviest part to the lightest, the node whose move costs the least cut
// (lowest id on a tie) without making the light part overweight, preferring
// small nodes that still fit.
//
// A node heavier than the slack can bounce between parts forever, so the
// loop often runs to its cap. The move is a function of part[] alone, so
// once a state repeats the rest of the loop is periodic: rebalance then
// replays the moves the cap would still make, modulo the period, and
// returns the state the full loop ends in. Repeats are found by Brent's
// method on an incremental Zobrist hash of part[] — the state at a
// checkpoint, moved to the current state every power of two — and checked
// exactly against the logged moves before they are trusted. It returns the
// period of the cycle it left, or 0 when the loop ended by itself.
func rebalance(g *graph.Graph, part []int32, opts Options, s *scratch) int {
	n := g.Len()
	k := opts.Parts
	partWeight := partWeights(g, part, k, s)
	maxW := int64(float64(g.TotalNodeWeight()) / float64(k) * (1 + opts.Imbalance))
	limit := 4 * n
	var members [][]int32 // members[p] lists part p's nodes
	var hash, checkpoint uint64
	since, power := 0, 1 // moves since the checkpoint; the next checkpoint's distance
	log := s.moves[:0]
	defer func() { s.moves = log }()
	for iter := 0; iter < limit; iter++ {
		// Heaviest overweight part and lightest part.
		heavy, light := 0, 0
		for p := 1; p < k; p++ {
			if partWeight[p] > partWeight[heavy] {
				heavy = p
			}
			if partWeight[p] < partWeight[light] {
				light = p
			}
		}
		if partWeight[heavy] <= maxW || heavy == light {
			return 0
		}
		if members == nil {
			members = s.memberLists(part, k)
		}
		best := int32(-1)
		var bestCost int64
		for _, v := range members[heavy] {
			nw := g.NodeWeight[v]
			if partWeight[light]+nw > maxW && nw < partWeight[heavy]-maxW {
				continue
			}
			var cost int64
			for _, e := range g.Adj[v] {
				if part[e.To] == int32(heavy) {
					cost += e.Weight
				} else if part[e.To] == int32(light) {
					cost -= e.Weight
				}
			}
			if best < 0 || cost < bestCost || (cost == bestCost && v < best) {
				best, bestCost = v, cost
			}
		}
		if best < 0 {
			return 0
		}
		mv := move{best, int32(heavy), int32(light)}
		apply(g, part, partWeight, mv)
		s.moveMember(members, mv)
		hash ^= zobrist(mv.v, mv.from) ^ zobrist(mv.v, mv.to)
		log = append(log, mv)
		since++
		if hash == checkpoint && s.returnsTo(part, log) {
			// The state after this move is the checkpoint state, so the
			// remaining limit-1-iter moves repeat log, period since.
			for _, m := range log[:(limit-1-iter)%since] {
				apply(g, part, partWeight, m)
			}
			return since
		}
		if since == power {
			checkpoint, log, since, power = hash, log[:0], 0, 2*power
		}
	}
	return 0
}

// apply makes move m on part[] and the part weights.
func apply(g *graph.Graph, part []int32, partWeight []int64, m move) {
	partWeight[m.from] -= g.NodeWeight[m.v]
	partWeight[m.to] += g.NodeWeight[m.v]
	part[m.v] = m.to
}

// memberLists returns each part's node list, with s.memberPos indexing
// into it.
func (s *scratch) memberLists(part []int32, k int) [][]int32 {
	if len(s.members) < k {
		s.members = append(s.members, make([][]int32, k-len(s.members))...)
	}
	members := s.members[:k]
	for p := range members {
		members[p] = members[p][:0]
	}
	s.memberPos = grow(s.memberPos, len(part))
	for v, p := range part {
		s.memberPos[v] = int32(len(members[p]))
		members[p] = append(members[p], int32(v))
	}
	return members
}

// moveMember moves m.v from its old part's member list to its new one.
func (s *scratch) moveMember(members [][]int32, m move) {
	from := members[m.from]
	i, last := s.memberPos[m.v], from[len(from)-1]
	from[i] = last
	s.memberPos[last] = i
	members[m.from] = from[:len(from)-1]
	s.memberPos[m.v] = int32(len(members[m.to]))
	members[m.to] = append(members[m.to], m.v)
}

// returnsTo reports whether part[] equals the state before the logged
// moves: every node the log moves is back in the part its first logged
// move took it from.
func (s *scratch) returnsTo(part []int32, log []move) bool {
	s.seen.reset(len(part))
	for _, m := range log {
		if s.seen.has(m.v) {
			continue
		}
		s.seen.add(m.v)
		if part[m.v] != m.from {
			return false
		}
	}
	return true
}

// zobrist is the hash contribution of node v sitting in part p (a
// splitmix64 finalizer of the pair).
func zobrist(v, p int32) uint64 {
	x := uint64(uint32(v))<<32 | uint64(uint32(p))
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Balance returns max part weight divided by average part weight for a
// partition into nparts (1.0 is perfect). Empty parts make this large.
func Balance(g *graph.Graph, part []int32, nparts int) float64 {
	stats := g.EvaluatePartition(part, nparts)
	var total, max int64
	for _, w := range stats.PartWeight {
		total += w
		if w > max {
			max = w
		}
	}
	if total == 0 {
		return 1
	}
	avg := float64(total) / float64(nparts)
	return float64(max) / avg
}
