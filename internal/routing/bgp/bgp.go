// Package bgp implements BGP4 policy routing at the AS level: route
// announcements carrying AS-path, local preference, MED and next hop, the
// sequential best-route decision process, and the import/export policies of
// Section 5.1.1 of the paper (customer > peer > provider local preference;
// no-valley export filtering derived from commercial relationships).
//
// The protocol runs as a message-driven path-vector computation over the AS
// adjacencies until convergence. Gao–Rexford conditions hold for networks
// produced by package mabrite (hierarchical provider/customer relations,
// core clique), so convergence is guaranteed; the implementation also
// carries a safety bound on message count. One speaker per AS stands in for
// the paper's per-border-router sessions (see DESIGN.md substitution #4);
// policy behaviour — "connectivity does not equal reachability" — is fully
// preserved.
package bgp

import (
	"fmt"
	"slices"

	"massf/internal/model"
)

// Local preference values implementing the paper's import policy rule:
// "Customer routes have the highest local preference, and peer routes have
// higher local preference than providers."
const (
	PrefCustomer = 100
	PrefPeer     = 90
	PrefProvider = 80
	PrefLocal    = 200 // own prefix beats everything
)

// Route is one BGP route toward a destination AS.
type Route struct {
	// Dest is the destination AS (stands in for its prefix).
	Dest int32
	// Path is the AS path; Path[0] is the neighbor the route was learned
	// from and Path[len-1] == Dest. Empty for a locally originated route.
	Path []int32
	// LocalPref is assigned by the import policy.
	LocalPref int
	// MED is the multi-exit discriminator carried on the announcement.
	MED int
	// LearnedFrom is the relationship toward the announcing neighbor;
	// it drives the export policy. RelCustomer for locally originated
	// routes so they export everywhere.
	LearnedFrom model.Relationship
}

// NextHopAS returns the neighbor AS the route forwards through, or the
// destination itself for local routes.
func (r *Route) NextHopAS() int32 {
	if len(r.Path) == 0 {
		return r.Dest
	}
	return r.Path[0]
}

// better reports whether a beats b under the BGP decision process: highest
// local preference, then shortest AS path, then lowest MED, then lowest
// next-hop AS id (the deterministic tiebreak standing in for router id).
func better(a, b *Route) bool {
	if b == nil {
		return true
	}
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	if len(a.Path) != len(b.Path) {
		return len(a.Path) < len(b.Path)
	}
	if a.MED != b.MED {
		return a.MED < b.MED
	}
	return a.NextHopAS() < b.NextHopAS()
}

// exportable implements the export policy: a route may be announced to a
// neighbor with relationship rel (from the local AS's view) iff it is
// locally originated or customer-learned, or the neighbor is a customer
// ("Export all routes to customers").
func exportable(r *Route, rel model.Relationship) bool {
	if rel == model.RelCustomer {
		return true
	}
	return r.LearnedFrom == model.RelCustomer
}

// prefFor implements the import policy's local-preference assignment by
// next-hop AS relationship.
func prefFor(rel model.Relationship) int {
	switch rel {
	case model.RelCustomer:
		return PrefCustomer
	case model.RelPeer:
		return PrefPeer
	default:
		return PrefProvider
	}
}

// RIB is the converged routing state: every AS's best route to every
// destination AS.
type RIB struct {
	best [][]*Route // [as][dest]
	// Messages is the number of BGP update messages exchanged before
	// convergence — a measure of protocol work reported by benches.
	Messages int
}

// NextHopAS returns the next-hop AS from as toward dest. ok is false when
// no policy-compliant route exists.
func (r *RIB) NextHopAS(as, dest int32) (int32, bool) {
	rt := r.best[as][dest]
	if rt == nil {
		return 0, false
	}
	return rt.NextHopAS(), true
}

// Path returns the full AS path from as to dest (excluding as itself), or
// nil if unreachable.
func (r *RIB) Path(as, dest int32) []int32 {
	rt := r.best[as][dest]
	if rt == nil {
		return nil
	}
	return rt.Path
}

// update is one BGP message in flight: an announcement (route != nil) or a
// withdrawal (route == nil) for dest, sent from one AS to another.
type update struct {
	from, to int32
	dest     int32
	route    *Route // as announced (path NOT yet prepended with `from`)
}

// Simulator is the incremental BGP protocol state machine: adj-RIBs-in per
// session, best routes, and a queue of in-flight updates. Beyond the batch
// Converge, it supports the dynamic studies the paper's future work calls
// for (BGP beacons: timed announcements and withdrawals of a prefix).
type Simulator struct {
	net   *model.Network
	rib   *RIB
	adjIn []map[int32][]*Route
	queue []update
	// down marks failed sessions by canonical (min,max) AS pair; queued
	// updates crossing a down session are discarded undelivered.
	down map[[2]int32]bool
}

// sessionKey canonicalizes an AS pair for the down-session set.
func sessionKey(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

// NewSimulator builds an idle simulator: no prefixes originated, empty
// RIBs.
func NewSimulator(net *model.Network) *Simulator {
	n := len(net.ASes)
	s := &Simulator{
		net:   net,
		rib:   &RIB{best: make([][]*Route, n)},
		adjIn: make([]map[int32][]*Route, n),
	}
	for as := 0; as < n; as++ {
		s.rib.best[as] = make([]*Route, n)
		s.adjIn[as] = make(map[int32][]*Route, len(net.ASes[as].Neighbors))
		for _, nb := range net.ASes[as].Neighbors {
			s.adjIn[as][nb.AS] = make([]*Route, n)
		}
	}
	return s
}

// RIB exposes the simulator's current routing state (live view).
func (s *Simulator) RIB() *RIB { return s.rib }

// Announce originates AS as's own prefix: the local route is installed and
// announcements queue to every neighbor. No-op if already announced.
func (s *Simulator) Announce(as int32) {
	if s.rib.best[as][as] != nil {
		return
	}
	s.rib.best[as][as] = &Route{Dest: as, LocalPref: PrefLocal, LearnedFrom: model.RelCustomer}
	for _, nb := range s.net.ASes[as].Neighbors {
		s.queue = append(s.queue, update{from: as, to: nb.AS, dest: as, route: &Route{Dest: as}})
	}
}

// Withdraw retracts AS as's own prefix, queueing withdrawals to every
// neighbor. No-op if not announced.
func (s *Simulator) Withdraw(as int32) {
	if s.rib.best[as][as] == nil {
		return
	}
	s.rib.best[as][as] = nil
	for _, nb := range s.net.ASes[as].Neighbors {
		s.queue = append(s.queue, update{from: as, to: nb.AS, dest: as})
	}
}

func (s *Simulator) relOf(as, nb int32) model.Relationship {
	r, ok := s.net.ASes[as].NeighborTo(nb)
	if !ok {
		panic(fmt.Sprintf("bgp: no adjacency %d → %d", as, nb))
	}
	return r.Rel
}

// Run processes queued updates until the protocol is quiescent, returning
// the number of messages exchanged in this burst. It panics if the count
// exceeds a safety bound (divergence would mean a policy bug).
func (s *Simulator) Run() int {
	n := len(s.net.ASes)
	bound := 2000 * n * n
	burst := 0
	for len(s.queue) > 0 {
		u := s.queue[0]
		s.queue = s.queue[1:]
		if s.down[sessionKey(u.from, u.to)] {
			continue // session failed with the update in flight: lost, uncounted
		}
		s.rib.Messages++
		burst++
		if burst > bound {
			panic("bgp: message bound exceeded; protocol diverging")
		}
		s.process(u)
	}
	return burst
}

// SessionDown fails the BGP session between ASes a and b. Each side
// immediately withdraws everything it had learned over the session — the
// same state transition a real speaker performs when the TCP session dies —
// so a following Run propagates the loss. The synthetic withdrawals are
// applied directly (the session carries nothing once down); only the
// resulting propagation to other neighbors counts as messages.
func (s *Simulator) SessionDown(a, b int32) {
	key := sessionKey(a, b)
	if s.down == nil {
		s.down = make(map[[2]int32]bool)
	}
	if s.down[key] {
		return
	}
	s.down[key] = true
	s.flushSession(a, b)
	s.flushSession(b, a)
}

// flushSession withdraws every route `to` had learned from `from`.
func (s *Simulator) flushSession(from, to int32) {
	adj := s.adjIn[to][from]
	for dest, r := range adj {
		if r != nil {
			s.process(update{from: from, to: to, dest: int32(dest)})
		}
	}
}

// SessionUp restores the session between ASes a and b. Both sides
// re-announce their current exportable best routes over it, as a real
// speaker does on session establishment; a following Run converges the
// re-learned state.
func (s *Simulator) SessionUp(a, b int32) {
	key := sessionKey(a, b)
	if !s.down[key] {
		return
	}
	delete(s.down, key)
	s.refreshSession(a, b)
	s.refreshSession(b, a)
}

// refreshSession queues announcements of every exportable best route from
// `from` to `to`.
func (s *Simulator) refreshSession(from, to int32) {
	rel := s.relOf(from, to)
	for dest, best := range s.rib.best[from] {
		if best != nil && exportable(best, rel) {
			s.queue = append(s.queue, update{
				from: from, to: to, dest: int32(dest),
				route: &Route{Dest: int32(dest), Path: best.Path, MED: best.MED},
			})
		}
	}
}

// Clone returns an independent copy of the simulator sharing the immutable
// network (and *Route values, which are never mutated after install) but
// owning its RIB, adj-RIBs-in, queue and session state, so protocol events
// applied to the clone never disturb the original.
func (s *Simulator) Clone() *Simulator {
	n := len(s.net.ASes)
	c := &Simulator{
		net:   s.net,
		rib:   &RIB{best: make([][]*Route, n), Messages: s.rib.Messages},
		adjIn: make([]map[int32][]*Route, n),
		queue: append([]update(nil), s.queue...),
	}
	for as := 0; as < n; as++ {
		c.rib.best[as] = append([]*Route(nil), s.rib.best[as]...)
		c.adjIn[as] = make(map[int32][]*Route, len(s.adjIn[as]))
		for nb, routes := range s.adjIn[as] {
			c.adjIn[as][nb] = append([]*Route(nil), routes...)
		}
	}
	if len(s.down) > 0 {
		c.down = make(map[[2]int32]bool, len(s.down))
		for k, v := range s.down {
			c.down[k] = v
		}
	}
	return c
}

// process applies one update: import policy, decision process, export.
func (s *Simulator) process(u update) {
	rel := s.relOf(u.to, u.from)
	var imported *Route
	if u.route != nil {
		// Import policy: loop rejection, then local preference.
		path := append([]int32{u.from}, u.route.Path...)
		if slices.Contains(path, u.to) {
			imported = nil // AS-path loop → deny
		} else {
			imported = &Route{
				Dest:        u.dest,
				Path:        path,
				LocalPref:   prefFor(rel),
				MED:         u.route.MED,
				LearnedFrom: rel,
			}
		}
		if imported == nil && s.adjIn[u.to][u.from][u.dest] == nil {
			return // denied and nothing to withdraw
		}
	}
	s.adjIn[u.to][u.from][u.dest] = imported

	// Decision process: best across all neighbors (own prefix wins
	// implicitly via PrefLocal).
	if u.dest == u.to && s.rib.best[u.to][u.dest] != nil {
		return // never replace a locally originated route
	}
	old := s.rib.best[u.to][u.dest]
	var best *Route
	for _, nb := range s.net.ASes[u.to].Neighbors {
		if cand := s.adjIn[u.to][nb.AS][u.dest]; cand != nil && better(cand, best) {
			best = cand
		}
	}
	if routesEqual(old, best) {
		return
	}
	s.rib.best[u.to][u.dest] = best
	// Propagate the change under the export policy.
	for _, nb := range s.net.ASes[u.to].Neighbors {
		outRel := s.relOf(u.to, nb.AS)
		switch {
		case best != nil && exportable(best, outRel):
			s.queue = append(s.queue, update{
				from: u.to, to: nb.AS, dest: u.dest,
				route: &Route{Dest: u.dest, Path: best.Path, MED: best.MED},
			})
		case old != nil && exportable(old, outRel):
			// Previously announced, now unexportable or gone.
			s.queue = append(s.queue, update{from: u.to, to: nb.AS, dest: u.dest})
		}
	}
}

func routesEqual(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.LocalPref == b.LocalPref && a.MED == b.MED && slices.Equal(a.Path, b.Path)
}

// Reachability returns, for every ordered AS pair, whether a policy
// route exists, plus the count of unreachable pairs — quantifying
// "connectivity does not equal reachability".
func (r *RIB) Reachability() (reachable [][]bool, unreachablePairs int) {
	n := len(r.best)
	reachable = make([][]bool, n)
	for a := 0; a < n; a++ {
		reachable[a] = make([]bool, n)
		for d := 0; d < n; d++ {
			reachable[a][d] = r.best[a][d] != nil
			if a != d && !reachable[a][d] {
				unreachablePairs++
			}
		}
	}
	return reachable, unreachablePairs
}
