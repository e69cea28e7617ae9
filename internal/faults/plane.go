package faults

import (
	"fmt"
	"sort"

	"massf/internal/des"
	"massf/internal/model"
	"massf/internal/routing/bgp"
	"massf/internal/routing/interdomain"
)

// transition is one physical state flip of a link or node.
type transition struct {
	at des.Time
	up bool
	// event is the expanded-event index responsible — fault attribution
	// for packets lost to the flip.
	event int
}

// epoch is one routing regime: the forwarding state in force from start
// until the next epoch begins.
type epoch struct {
	start  des.Time
	routes *interdomain.Router
}

// FaultInfo is the per-fault report: what happened, what the routing
// layers did about it, and when the new paths took effect. Serializable
// for the runctl /runs/{id}/faults endpoint and CLI reports.
type FaultInfo struct {
	// Index is the expanded-event index (flaps contribute one entry per
	// half-cycle).
	Index int `json:"index"`
	// At is when the physical change happens.
	At   des.Time `json:"at_ns"`
	Kind Kind     `json:"kind"`
	// Link / Node identify the target; the inapplicable one is -1.
	Link model.LinkID `json:"link"`
	Node model.NodeID `json:"node"`
	// NoOp marks an event that found its target already in the requested
	// state (e.g. downing a link a concurrent router failure had already
	// isolated); it changes nothing and converges instantly.
	NoOp bool `json:"no_op,omitempty"`
	// UpdateMsgs is the BGP update-message count of the reconvergence
	// storm this event triggered (0 for intra-AS-only events).
	UpdateMsgs int `json:"update_msgs"`
	// RoutesChanged counts (src,dst) AS pairs whose AS path changed or
	// whose reachability flipped (0 in single-AS networks).
	RoutesChanged int `json:"routes_changed"`
	// ConvergeNS is the modeled reconvergence delay; RoutesAt = At +
	// ConvergeNS (clamped to be non-decreasing across events) is when the
	// post-fault forwarding state takes effect. The window [At, RoutesAt)
	// is where fault-attributed loss concentrates.
	ConvergeNS int64    `json:"converge_ns"`
	RoutesAt   des.Time `json:"routes_at_ns"`
}

// Plane is the compiled fault plane: the script expanded against a
// concrete network, with physical link/node state as sorted transition
// timelines and routing state as a precomputed chain of immutable epochs.
// Every query is a pure function of simulated time, so concurrent engines
// and distributed workers — each holding an identically-built Plane — see
// byte-identical behavior. Build once at setup with NewPlane; all methods
// are safe for concurrent use.
type Plane struct {
	net    *model.Network
	linkT  [][]transition // per link id; empty for untouched links
	nodeT  [][]transition
	epochs []epoch // sorted by start; epochs[0] = {0, base}
	events []FaultInfo
}

// NewPlane compiles script against net, deriving every routing epoch up
// front: for each expanded event the interdomain router advances (OSPF
// recompute + BGP session replay), and the resulting state is scheduled to
// take effect after the modeled convergence delay. base must be the
// router netsim would use without faults.
func NewPlane(net *model.Network, base *interdomain.Router, script *Script) (*Plane, error) {
	if err := script.ValidateFor(net); err != nil {
		return nil, err
	}
	p := &Plane{
		net:    net,
		linkT:  make([][]transition, len(net.Links)),
		nodeT:  make([][]transition, len(net.Nodes)),
		epochs: []epoch{{start: 0, routes: base}},
	}
	if script == nil {
		return p, nil
	}
	spfDelay := script.SPFDelayNS
	if spfDelay == 0 {
		spfDelay = DefaultSPFDelayNS
	}
	perMsg := script.PerMsgNS
	if perMsg == 0 {
		perMsg = DefaultPerMsgNS
	}
	linkUp := make([]bool, len(net.Links))
	nodeUp := make([]bool, len(net.Nodes))
	for i := range linkUp {
		linkUp[i] = true
	}
	for i := range nodeUp {
		nodeUp[i] = true
	}
	cur := base
	for i, e := range script.Expand() {
		info := FaultInfo{Index: i, At: e.At, Kind: e.Kind, Link: -1, Node: -1}
		var ch interdomain.Change
		switch e.Kind {
		case LinkDown, LinkUp:
			info.Link = e.Link
			wantUp := e.Kind == LinkUp
			if linkUp[e.Link] == wantUp {
				info.NoOp = true
			} else {
				linkUp[e.Link] = wantUp
				ch = interdomain.LinkChange(e.Link, !wantUp)
			}
		case NodeDown, NodeUp:
			info.Node = e.Node
			wantUp := e.Kind == NodeUp
			if nodeUp[e.Node] == wantUp {
				info.NoOp = true
			} else {
				nodeUp[e.Node] = wantUp
				ch = interdomain.NodeChange(e.Node, !wantUp)
			}
		default:
			return nil, fmt.Errorf("faults: unexpanded kind %q", e.Kind)
		}
		if info.NoOp {
			info.RoutesAt = e.At
			p.events = append(p.events, info)
			continue
		}
		if info.Link >= 0 {
			p.linkT[info.Link] = append(p.linkT[info.Link],
				transition{at: e.At, up: linkUp[info.Link], event: i})
		} else {
			p.nodeT[info.Node] = append(p.nodeT[info.Node],
				transition{at: e.At, up: nodeUp[info.Node], event: i})
		}
		next, msgs := cur.Advance([]interdomain.Change{ch})
		info.UpdateMsgs = msgs
		if oldRIB, newRIB := cur.RIB(), next.RIB(); oldRIB != nil && newRIB != oldRIB {
			cmp := bgp.Compare(oldRIB, newRIB)
			info.RoutesChanged = cmp.Pairs - cmp.SamePath
		}
		delay := e.ConvergeNS
		if delay == 0 {
			delay = spfDelay + int64(msgs)*perMsg
		}
		info.ConvergeNS = delay
		routesAt := e.At + des.Time(delay)
		if last := p.epochs[len(p.epochs)-1].start; routesAt < last {
			// An earlier fault's convergence outlasts this one's: the
			// combined state still cannot take effect before it.
			routesAt = last
		}
		info.RoutesAt = routesAt
		if p.epochs[len(p.epochs)-1].start == routesAt {
			p.epochs[len(p.epochs)-1].routes = next // later event wins the slot
		} else {
			p.epochs = append(p.epochs, epoch{start: routesAt, routes: next})
		}
		cur = next
		p.events = append(p.events, info)
	}
	return p, nil
}

// NumFaults returns the expanded-event count.
func (p *Plane) NumFaults() int { return len(p.events) }

// FaultAt returns the physical time of expanded event i.
func (p *Plane) FaultAt(i int) des.Time { return p.events[i].At }

// FaultConvergeNS returns event i's modeled reconvergence delay.
func (p *Plane) FaultConvergeNS(i int) int64 { return p.events[i].ConvergeNS }

// FaultRoutesAt returns when event i's post-fault routes took effect.
func (p *Plane) FaultRoutesAt(i int) des.Time { return p.events[i].RoutesAt }

// Events returns the per-fault report (shared slice; treat as read-only).
func (p *Plane) Events() []FaultInfo { return p.events }

// routesAt returns the routing state in force at time t.
func (p *Plane) routesAt(t des.Time) *interdomain.Router {
	// Sorted by start with epochs[0].start == 0: find the last epoch
	// starting at or before t.
	i := sort.Search(len(p.epochs), func(i int) bool { return p.epochs[i].start > t }) - 1
	return p.epochs[i].routes
}

// NextLink returns the forwarding decision at node cur toward dst under
// the routing regime in force at time now, or -1 to drop.
func (p *Plane) NextLink(now des.Time, cur, dst model.NodeID) model.LinkID {
	return p.routesAt(now).NextLink(cur, dst)
}

// stateAt resolves a transition timeline at time t: up/down plus the
// responsible expanded-event index (-1 when in the initial up state).
func stateAt(ts []transition, t des.Time) (bool, int) {
	i := sort.Search(len(ts), func(i int) bool { return ts[i].at > t }) - 1
	if i < 0 {
		return true, -1
	}
	return ts[i].up, ts[i].event
}

// LinkUp reports whether link lid is physically up at time now; when down,
// the second result is the expanded-event index that downed it. The
// common case — a link no script event touches — is a nil-slice check.
func (p *Plane) LinkUp(now des.Time, lid model.LinkID) (bool, int) {
	ts := p.linkT[lid]
	if len(ts) == 0 {
		return true, -1
	}
	return stateAt(ts, now)
}

// NodeUp reports whether node n is up at time now (second result as in
// LinkUp).
func (p *Plane) NodeUp(now des.Time, n model.NodeID) (bool, int) {
	ts := p.nodeT[n]
	if len(ts) == 0 {
		return true, -1
	}
	return stateAt(ts, now)
}

// Boundaries returns every simulated time at which the plane's answers
// can change — physical link/node transitions and routing-epoch starts —
// sorted ascending without duplicates. Time-driven consumers (the fluid
// plane's rate solver) recompute exactly at these points and nowhere
// else; between two boundaries every Plane query is constant.
func (p *Plane) Boundaries() []des.Time {
	var out []des.Time
	for _, ts := range p.linkT {
		for _, tr := range ts {
			out = append(out, tr.at)
		}
	}
	for _, ts := range p.nodeT {
		for _, tr := range ts {
			out = append(out, tr.at)
		}
	}
	for _, ep := range p.epochs {
		if ep.start > 0 {
			out = append(out, ep.start)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	dedup := out[:0]
	for _, t := range out {
		if len(dedup) == 0 || dedup[len(dedup)-1] != t {
			dedup = append(dedup, t)
		}
	}
	return dedup
}
