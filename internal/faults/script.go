// Package faults is the scripted fault plane: timed link/router churn
// injected into a running simulation — link down/up, router down/up,
// flapping, partition-and-heal — with the routing layers reacting the way
// the real protocols would (OSPF SPF recomputation, BGP withdrawal and
// re-announcement) after a modeled convergence delay.
//
// A Script is the serializable description (explicit timeline or seeded
// random via Generate); a Plane (plane.go) is the compiled, immutable
// runtime form the packet simulator consults. Determinism is the design
// center: every fault consequence is a pure function of simulated time, so
// a sequential run, a k-engine run and a distributed run of the same
// script produce byte-identical statistics (the simcheck churn dimension
// proves it).
package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"massf/internal/des"
	"massf/internal/model"
)

// Kind names a scripted fault event type.
type Kind string

// Fault event kinds. Link events interpret Event.Link, node events
// Event.Node. A flap is sugar for Count down/up pairs spaced Period apart
// (expanded before execution; each half-cycle reports as its own fault).
const (
	LinkDown Kind = "link-down"
	LinkUp   Kind = "link-up"
	NodeDown Kind = "node-down"
	NodeUp   Kind = "node-up"
	LinkFlap Kind = "link-flap"
)

// valid reports whether k is a known kind.
func (k Kind) valid() bool {
	switch k {
	case LinkDown, LinkUp, NodeDown, NodeUp, LinkFlap:
		return true
	}
	return false
}

// linkKind reports whether k targets a link.
func (k Kind) linkKind() bool { return k == LinkDown || k == LinkUp || k == LinkFlap }

// Event is one scripted fault.
type Event struct {
	// At is the simulated time the fault strikes, in nanoseconds.
	At des.Time `json:"at_ns"`
	// Kind selects the fault type.
	Kind Kind `json:"kind"`
	// Link is the target link id for link-* kinds.
	Link model.LinkID `json:"link"`
	// Node is the target node id for node-* kinds.
	Node model.NodeID `json:"node"`
	// Period is the flap half-period: a link-flap goes down at At,
	// up at At+Period, down at At+2·Period, … for Count cycles.
	Period des.Time `json:"period_ns,omitempty"`
	// Count is the number of down/up cycles of a flap (default 1).
	Count int `json:"count,omitempty"`
	// ConvergeNS, when positive, overrides the modeled convergence delay
	// for this event (otherwise Script.SPFDelayNS + msgs·PerMsgNS).
	ConvergeNS int64 `json:"converge_ns,omitempty"`
}

// Script is a serializable fault timeline plus the convergence-delay model
// applied when events do not carry an explicit override.
type Script struct {
	// SPFDelayNS is the fixed SPF/scheduling component of the modeled
	// reconvergence delay (default 2 ms).
	SPFDelayNS int64 `json:"spf_delay_ns,omitempty"`
	// PerMsgNS is the per-BGP-update component (default 10 µs): an event
	// triggering m update messages converges after SPFDelayNS + m·PerMsgNS.
	PerMsgNS int64 `json:"per_msg_ns,omitempty"`
	// Events is the fault timeline. Order is free; execution sorts by time.
	Events []Event `json:"events"`
}

// Bounds keeping expansion and time arithmetic safe (times stay far from
// int64 overflow even when summed, and a hostile script cannot explode
// into millions of expanded events).
const (
	maxEvents   = 4096
	maxExpanded = 1024
	maxFlaps    = 64
	// maxEventTime bounds every scripted time and period: one simulated
	// hour, matching runspec's horizon ceiling.
	maxEventTime = des.Time(3600) * des.Second
)

// DefaultSPFDelayNS and DefaultPerMsgNS are the convergence-delay model
// defaults applied when the script leaves them zero.
const (
	DefaultSPFDelayNS = 2_000_000 // 2 ms
	DefaultPerMsgNS   = 10_000    // 10 µs
)

// Validate checks the script's structure: known kinds, positive in-range
// times, sane flap parameters. Target ids are validated against a concrete
// network by ValidateFor (a Script travels through run specs before any
// topology exists).
func (s *Script) Validate() error {
	if s == nil {
		return nil
	}
	if s.SPFDelayNS < 0 || des.Time(s.SPFDelayNS) > maxEventTime {
		return fmt.Errorf("faults: spf_delay_ns %d out of range", s.SPFDelayNS)
	}
	if s.PerMsgNS < 0 || des.Time(s.PerMsgNS) > maxEventTime {
		return fmt.Errorf("faults: per_msg_ns %d out of range", s.PerMsgNS)
	}
	if len(s.Events) > maxEvents {
		return fmt.Errorf("faults: %d events exceeds the %d limit", len(s.Events), maxEvents)
	}
	expanded := 0
	for i := range s.Events {
		e := &s.Events[i]
		if !e.Kind.valid() {
			return fmt.Errorf("faults: event %d has unknown kind %q", i, e.Kind)
		}
		if e.At <= 0 || e.At > maxEventTime {
			return fmt.Errorf("faults: event %d time %v out of range (0, %v]", i, e.At, maxEventTime)
		}
		if e.ConvergeNS < 0 || des.Time(e.ConvergeNS) > maxEventTime {
			return fmt.Errorf("faults: event %d converge_ns %d out of range", i, e.ConvergeNS)
		}
		if e.Kind == LinkFlap {
			if e.Period <= 0 || e.Period > maxEventTime {
				return fmt.Errorf("faults: flap event %d period %v out of range (0, %v]", i, e.Period, maxEventTime)
			}
			if e.Count < 0 || e.Count > maxFlaps {
				return fmt.Errorf("faults: flap event %d count %d out of range [0, %d]", i, e.Count, maxFlaps)
			}
			expanded += 2 * max(e.Count, 1)
		} else {
			expanded++
		}
	}
	if expanded > maxExpanded {
		return fmt.Errorf("faults: script expands to %d events, exceeding the %d limit", expanded, maxExpanded)
	}
	return nil
}

// Load reads a JSON fault script (strict field names) and checks its
// structure. Target ids still need ValidateFor once a topology exists.
func Load(r io.Reader) (*Script, error) {
	var sc Script
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("faults: bad script: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// Clone returns an independently mutable copy (Events is the only slice
// field).
func (s *Script) Clone() *Script {
	if s == nil {
		return nil
	}
	c := *s
	c.Events = append([]Event(nil), s.Events...)
	return &c
}

// ValidateFor runs Validate plus target-id range checks against net.
func (s *Script) ValidateFor(net *model.Network) error {
	if s == nil {
		return nil
	}
	if err := s.Validate(); err != nil {
		return err
	}
	for i := range s.Events {
		e := &s.Events[i]
		if e.Kind.linkKind() {
			if e.Link < 0 || int(e.Link) >= len(net.Links) {
				return fmt.Errorf("faults: event %d targets link %d; network has %d links", i, e.Link, len(net.Links))
			}
		} else if e.Node < 0 || int(e.Node) >= len(net.Nodes) {
			return fmt.Errorf("faults: event %d targets node %d; network has %d nodes", i, e.Node, len(net.Nodes))
		}
	}
	return nil
}

// Expand flattens flaps into explicit down/up events and returns the full
// timeline sorted by time (ties keep script order). The result is what the
// plane compiles; each expanded event is individually reported, so every
// half-cycle of a flap carries its own loss attribution.
func (s *Script) Expand() []Event {
	out := make([]Event, 0, len(s.Events))
	for _, e := range s.Events {
		if e.Kind != LinkFlap {
			out = append(out, e)
			continue
		}
		cycles := max(e.Count, 1)
		for c := 0; c < cycles; c++ {
			down, up := e, e
			down.Kind, down.At = LinkDown, e.At+des.Time(2*c)*e.Period
			up.Kind, up.At = LinkUp, e.At+des.Time(2*c+1)*e.Period
			out = append(out, down, up)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Outage returns a down/up event pair taking link lid out for [at, at+d).
func Outage(lid model.LinkID, at, d des.Time) []Event {
	return []Event{
		{At: at, Kind: LinkDown, Link: lid},
		{At: at + d, Kind: LinkUp, Link: lid},
	}
}

// NodeOutage returns a down/up event pair taking node n out for [at, at+d).
func NodeOutage(n model.NodeID, at, d des.Time) []Event {
	return []Event{
		{At: at, Kind: NodeDown, Node: n},
		{At: at + d, Kind: NodeUp, Node: n},
	}
}

// GenOptions parameterizes the seeded-random script generator.
type GenOptions struct {
	// Seed drives every random choice; the same (net, options) pair always
	// yields the same script.
	Seed int64
	// Events is the number of fault incidents to generate (an outage or a
	// flap counts as one incident). Default 3.
	Events int
	// Horizon is the simulated run length the faults must land inside;
	// fault times fall in [Horizon/8, 3·Horizon/4] so consequences are
	// observable before the run ends. Required.
	Horizon des.Time
}

// Generate produces a seeded-random fault script for net: mostly transient
// link outages on router-router links (the interesting case — traffic
// reroutes), with occasional flaps, router outages and permanent failures.
// The convergence-delay model is sized so reconvergence completes well
// inside typical conformance horizons (tens to hundreds of ms).
func Generate(net *model.Network, opt GenOptions) *Script {
	if opt.Events <= 0 {
		opt.Events = 3
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	var links []model.LinkID
	for i := range net.Links {
		l := &net.Links[i]
		if net.Nodes[l.A].Kind == model.Router && net.Nodes[l.B].Kind == model.Router {
			links = append(links, l.ID)
		}
	}
	var routers []model.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Router {
			routers = append(routers, model.NodeID(i))
		}
	}
	sc := &Script{SPFDelayNS: DefaultSPFDelayNS, PerMsgNS: DefaultPerMsgNS}
	if len(links) == 0 || opt.Horizon <= 0 {
		return sc
	}
	h := int64(opt.Horizon)
	at := func() des.Time { return des.Time(h/8 + rng.Int63n(h/2+h/8)) }
	dur := func() des.Time { return des.Time(h/8 + rng.Int63n(h/8)) }
	for i := 0; i < opt.Events; i++ {
		switch roll := rng.Intn(10); {
		case roll < 5: // transient link outage
			sc.Events = append(sc.Events, Outage(links[rng.Intn(len(links))], at(), dur())...)
		case roll < 7: // link flap
			sc.Events = append(sc.Events, Event{
				At: at(), Kind: LinkFlap, Link: links[rng.Intn(len(links))],
				Period: des.Time(h/64 + rng.Int63n(h/32)), Count: 2 + rng.Intn(2),
			})
		case roll < 9 && len(routers) > 0: // router outage
			sc.Events = append(sc.Events, NodeOutage(routers[rng.Intn(len(routers))], at(), dur())...)
		default: // permanent link failure
			sc.Events = append(sc.Events, Event{At: at(), Kind: LinkDown, Link: links[rng.Intn(len(links))]})
		}
	}
	return sc
}
