// Slice-local topology: given a node→engine partition and the contiguous
// engine range one distributed worker hosts, compute which nodes the worker
// owns and a compact descriptor of the boundary — the links that cross from
// an owned node to a node simulated elsewhere. A worker materializes
// routing tables and host/flow state only for owned nodes;
// the boundary descriptor is everything it needs to know about the rest of
// the network's edge (packets crossing it travel over internal/wire).

package topology

import (
	"fmt"

	"massf/internal/model"
)

// BoundaryLink is one link crossing the slice edge: Inside is the owned
// endpoint, Outside the endpoint simulated by another worker.
type BoundaryLink struct {
	Link          model.LinkID `json:"link"`
	Inside        model.NodeID `json:"inside"`
	Outside       model.NodeID `json:"outside"`
	OutsideEngine int32        `json:"outside_engine"`
}

// Slice describes the sub-network one worker materializes: the owned node
// set, the links wholly inside it, and the boundary descriptor.
type Slice struct {
	// First and Hosted delimit the contiguous engine range [First,
	// First+Hosted) this slice covers.
	First, Hosted int
	// Owned marks nodes mapped to a hosted engine (full-length over
	// net.Nodes).
	Owned []bool
	// OwnedNodes counts true entries in Owned.
	OwnedNodes int
	// Internal lists links with both endpoints owned.
	Internal []model.LinkID
	// Boundary lists links with exactly one endpoint owned, sorted by
	// link id.
	Boundary []BoundaryLink
}

// BuildSlice computes the slice of net that a worker hosting engines
// [first, first+hosted) of the given node→engine partition materializes.
// A nil part means everything maps to engine 0 (the sequential case).
func BuildSlice(net *model.Network, part []int32, first, hosted int) (*Slice, error) {
	if hosted <= 0 {
		return nil, fmt.Errorf("topology: slice needs hosted ≥ 1, got %d", hosted)
	}
	if part != nil && len(part) != len(net.Nodes) {
		return nil, fmt.Errorf("topology: partition length %d ≠ %d nodes", len(part), len(net.Nodes))
	}
	engineOf := func(n model.NodeID) int32 {
		if part == nil {
			return 0
		}
		return part[n]
	}
	s := &Slice{
		First:  first,
		Hosted: hosted,
		Owned:  make([]bool, len(net.Nodes)),
	}
	lo, hi := int32(first), int32(first+hosted)
	for i := range net.Nodes {
		e := engineOf(model.NodeID(i))
		if e >= lo && e < hi {
			s.Owned[i] = true
			s.OwnedNodes++
		}
	}
	for i := range net.Links {
		l := &net.Links[i]
		a, b := s.Owned[l.A], s.Owned[l.B]
		switch {
		case a && b:
			s.Internal = append(s.Internal, l.ID)
		case a:
			s.Boundary = append(s.Boundary, BoundaryLink{
				Link: l.ID, Inside: l.A, Outside: l.B, OutsideEngine: engineOf(l.B),
			})
		case b:
			s.Boundary = append(s.Boundary, BoundaryLink{
				Link: l.ID, Inside: l.B, Outside: l.A, OutsideEngine: engineOf(l.A),
			})
		}
	}
	return s, nil
}

// Verify checks the slice invariant against net: the internal links plus
// the boundary descriptor reconstruct exactly the set of links any owned
// node can reach in one hop (its incident links), with boundary sides and
// engines consistent with part. This is the property the sharded build
// depends on — a link missing here is a packet a sliced worker would
// silently never forward.
func (s *Slice) Verify(net *model.Network, part []int32) error {
	if len(s.Owned) != len(net.Nodes) {
		return fmt.Errorf("slice: Owned length %d ≠ %d nodes", len(s.Owned), len(net.Nodes))
	}
	have := make(map[model.LinkID]bool, len(s.Internal)+len(s.Boundary))
	for _, lid := range s.Internal {
		l := &net.Links[lid]
		if !s.Owned[l.A] || !s.Owned[l.B] {
			return fmt.Errorf("slice: internal link %d has a non-owned endpoint", lid)
		}
		have[lid] = true
	}
	for _, b := range s.Boundary {
		l := &net.Links[b.Link]
		if l.Other(b.Inside) != b.Outside {
			return fmt.Errorf("slice: boundary link %d endpoints %d–%d don't match descriptor %d–%d",
				b.Link, l.A, l.B, b.Inside, b.Outside)
		}
		if !s.Owned[b.Inside] || s.Owned[b.Outside] {
			return fmt.Errorf("slice: boundary link %d sides inverted", b.Link)
		}
		if part != nil && part[b.Outside] != b.OutsideEngine {
			return fmt.Errorf("slice: boundary link %d outside engine %d ≠ partition's %d",
				b.Link, b.OutsideEngine, part[b.Outside])
		}
		if have[b.Link] {
			return fmt.Errorf("slice: link %d listed twice", b.Link)
		}
		have[b.Link] = true
	}
	// Exactness: every link incident to an owned node is listed, and
	// nothing else is.
	want := 0
	for i := range net.Links {
		l := &net.Links[i]
		if s.Owned[l.A] || s.Owned[l.B] {
			want++
			if !have[l.ID] {
				return fmt.Errorf("slice: link %d incident to an owned node is missing", l.ID)
			}
		}
	}
	if len(have) != want {
		return fmt.Errorf("slice: %d links listed, %d incident to owned nodes", len(have), want)
	}
	return nil
}
