// Encoding of model.Network to and from DML, so generated topologies can be
// written to configuration files and loaded back by the simulator tools.
package dml

import (
	"fmt"
	"io"

	"massf/internal/model"
)

// EncodeNetwork renders a network as a DML document rooted at "massf".
func EncodeNetwork(net *model.Network) []Pair {
	var body []Pair
	for i := range net.Nodes {
		n := &net.Nodes[i]
		body = append(body, L("node",
			P("id", n.ID),
			P("kind", n.Kind),
			P("as", n.AS),
			P("x", n.X),
			P("y", n.Y),
		))
	}
	for i := range net.Links {
		l := &net.Links[i]
		body = append(body, L("link",
			P("a", l.A),
			P("b", l.B),
			P("latency", l.Latency),
			P("bandwidth", l.Bandwidth),
		))
	}
	for i := range net.ASes {
		as := &net.ASes[i]
		asPairs := []Pair{
			P("id", as.ID),
			P("class", as.Class),
			P("defaultBorder", as.DefaultBorder),
		}
		for _, nb := range as.Neighbors {
			asPairs = append(asPairs, L("neighbor",
				P("as", nb.AS),
				P("rel", nb.Rel),
				P("localBorder", nb.LocalBorder),
				P("remoteBorder", nb.RemoteBorder),
				P("link", nb.Link),
			))
		}
		body = append(body, Pair{Key: "as", Value: ListValue(asPairs...)})
	}
	return []Pair{{Key: "massf", Value: ListValue(body...)}}
}

// WriteNetwork writes the network as DML text.
func WriteNetwork(w io.Writer, net *model.Network) error {
	_, err := io.WriteString(w, Format(EncodeNetwork(net)))
	return err
}

// DecodeNetwork rebuilds a network from a DML document produced by
// EncodeNetwork. AS router/host membership lists are reconstructed from
// the node tags, and the result must pass model.Network.Validate.
func DecodeNetwork(doc []Pair) (*model.Network, error) {
	root, ok := First(doc, "massf")
	if !ok || root.IsAtom() {
		return nil, fmt.Errorf("dml: document has no massf [ ] root")
	}
	body := root.List
	net := &model.Network{}
	for _, v := range Find(body, "node") {
		if v.IsAtom() {
			return nil, fmt.Errorf("dml: node must be a list")
		}
		kindStr, _ := Atom(v.List, "kind")
		kind := model.Router
		if kindStr == "host" {
			kind = model.Host
		}
		as, err := Int(v.List, "as")
		if err != nil {
			return nil, err
		}
		x, err := Float(v.List, "x")
		if err != nil {
			return nil, err
		}
		y, err := Float(v.List, "y")
		if err != nil {
			return nil, err
		}
		net.AddNode(kind, int32(as), x, y)
	}
	for _, v := range Find(body, "link") {
		a, err := Int(v.List, "a")
		if err != nil {
			return nil, err
		}
		b, err := Int(v.List, "b")
		if err != nil {
			return nil, err
		}
		lat, err := Int(v.List, "latency")
		if err != nil {
			return nil, err
		}
		bw, err := Int(v.List, "bandwidth")
		if err != nil {
			return nil, err
		}
		if a < 0 || a >= int64(len(net.Nodes)) || b < 0 || b >= int64(len(net.Nodes)) || a == b {
			return nil, fmt.Errorf("dml: link endpoints out of range or equal (%d, %d)", a, b)
		}
		net.AddLink(model.NodeID(a), model.NodeID(b), lat, bw)
	}
	asValues := Find(body, "as")
	net.ASes = make([]model.AS, len(asValues))
	for i, v := range asValues {
		id, err := Int(v.List, "id")
		if err != nil {
			return nil, err
		}
		if id != int64(i) {
			return nil, fmt.Errorf("dml: AS %d out of order (index %d)", id, i)
		}
		classStr, _ := Atom(v.List, "class")
		var class model.ASClass
		switch classStr {
		case "stub":
			class = model.ASStub
		case "regional":
			class = model.ASRegional
		case "core":
			class = model.ASCore
		default:
			return nil, fmt.Errorf("dml: AS %d has unknown class %q", id, classStr)
		}
		db, err := Int(v.List, "defaultBorder")
		if err != nil {
			return nil, err
		}
		as := model.AS{ID: int32(id), Class: class, DefaultBorder: model.NodeID(db)}
		for _, nv := range Find(v.List, "neighbor") {
			nbAS, err := Int(nv.List, "as")
			if err != nil {
				return nil, err
			}
			relStr, _ := Atom(nv.List, "rel")
			var rel model.Relationship
			switch relStr {
			case "provider":
				rel = model.RelProvider
			case "customer":
				rel = model.RelCustomer
			case "peer":
				rel = model.RelPeer
			default:
				return nil, fmt.Errorf("dml: unknown relationship %q", relStr)
			}
			lb, err := Int(nv.List, "localBorder")
			if err != nil {
				return nil, err
			}
			rb, err := Int(nv.List, "remoteBorder")
			if err != nil {
				return nil, err
			}
			lid, err := Int(nv.List, "link")
			if err != nil {
				return nil, err
			}
			as.Neighbors = append(as.Neighbors, model.ASNeighbor{
				AS: int32(nbAS), Rel: rel,
				LocalBorder: model.NodeID(lb), RemoteBorder: model.NodeID(rb),
				Link: model.LinkID(lid),
			})
		}
		net.ASes[i] = as
	}
	// Rebuild membership lists from node tags.
	for i := range net.Nodes {
		n := &net.Nodes[i]
		if n.AS < 0 || int(n.AS) >= len(net.ASes) {
			return nil, fmt.Errorf("dml: node %d tagged with unknown AS %d", i, n.AS)
		}
		if n.Kind == model.Router {
			net.ASes[n.AS].Routers = append(net.ASes[n.AS].Routers, n.ID)
		} else {
			net.ASes[n.AS].Hosts = append(net.ASes[n.AS].Hosts, n.ID)
		}
	}
	// Latencies and bandwidths divide downstream (mapping weights, queue
	// service times, routing costs): refuse a network they would break.
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// ReadNetwork parses DML text into a network.
func ReadNetwork(r io.Reader) (*model.Network, error) {
	doc, err := Parse(r)
	if err != nil {
		return nil, err
	}
	return DecodeNetwork(doc)
}
