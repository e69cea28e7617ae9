package dml

import (
	"strings"
	"testing"
	"testing/quick"

	"massf/internal/mabrite"
	"massf/internal/model"
	"massf/internal/topology"
)

func TestParseBasic(t *testing.T) {
	doc, err := Parse(strings.NewReader(`
Net [
  frequency 1000000000
  router [ id 0 name "core router" ]
  router [ id 1 ]
  link [ attach 0 attach 1 delay 0.005 ]
]`))
	if err != nil {
		t.Fatal(err)
	}
	net, ok := First(doc, "Net")
	if !ok || net.IsAtom() {
		t.Fatal("Net root missing")
	}
	if f, err := Int(net.List, "frequency"); err != nil || f != 1000000000 {
		t.Errorf("frequency = %d, %v", f, err)
	}
	routers := Find(net.List, "router")
	if len(routers) != 2 {
		t.Fatalf("routers = %d, want 2", len(routers))
	}
	if name, _ := Atom(routers[0].List, "name"); name != "core router" {
		t.Errorf("quoted atom = %q", name)
	}
	link, _ := First(net.List, "link")
	if got := Find(link.List, "attach"); len(got) != 2 {
		t.Errorf("repeated keys: %d attach values, want 2", len(got))
	}
	if d, err := Float(link.List, "delay"); err != nil || d != 0.005 {
		t.Errorf("delay = %v, %v", d, err)
	}
}

func TestParseComments(t *testing.T) {
	doc, err := Parse(strings.NewReader("a 1 # comment [ ]\nb [ c 2 ] # tail\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc) != 2 {
		t.Fatalf("pairs = %d, want 2", len(doc))
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"a [ b 1",   // unterminated list
		"]",         // stray bracket
		"[ a 1 ]",   // bracket without key
		"a ]",       // key followed by ]
		"a",         // key without value
		`a "unterm`, // unterminated string
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted invalid input %q", bad)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	doc := []Pair{
		L("Net",
			P("frequency", 123),
			L("router", P("id", 0), P("name", "has spaces")),
			L("empty"),
			P("pi", 3.5),
		),
	}
	text := Format(doc)
	back, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if Format(back) != text {
		t.Errorf("round trip not stable:\n%s\nvs\n%s", text, Format(back))
	}
}

func TestHelpers(t *testing.T) {
	doc := []Pair{P("x", 5)}
	if _, err := Int(doc, "missing"); err == nil {
		t.Error("Int on missing key succeeded")
	}
	if _, err := Float(doc, "missing"); err == nil {
		t.Error("Float on missing key succeeded")
	}
	if _, err := Int([]Pair{P("x", "abc")}, "x"); err == nil {
		t.Error("Int on non-number succeeded")
	}
	if _, ok := Atom([]Pair{L("x", P("y", 1))}, "x"); ok {
		t.Error("Atom returned a list value")
	}
}

func TestNetworkRoundTripFlat(t *testing.T) {
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 60, Hosts: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteNetwork(&sb, net); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNetwork(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("decoded network invalid: %v", err)
	}
	if len(back.Nodes) != len(net.Nodes) || len(back.Links) != len(net.Links) {
		t.Fatal("size mismatch after round trip")
	}
	for i := range net.Links {
		if net.Links[i] != back.Links[i] {
			t.Fatalf("link %d mismatch", i)
		}
	}
	for i := range net.Nodes {
		a, b := net.Nodes[i], back.Nodes[i]
		if a.Kind != b.Kind || a.AS != b.AS {
			t.Fatalf("node %d mismatch", i)
		}
	}
}

func TestNetworkRoundTripMultiAS(t *testing.T) {
	net, err := mabrite.Generate(mabrite.Options{ASes: 8, RoutersPerAS: 6, Hosts: 12, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteNetwork(&sb, net); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNetwork(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("decoded network invalid: %v", err)
	}
	if len(back.ASes) != len(net.ASes) {
		t.Fatal("AS count mismatch")
	}
	for i := range net.ASes {
		a, b := &net.ASes[i], &back.ASes[i]
		if a.Class != b.Class || a.DefaultBorder != b.DefaultBorder {
			t.Fatalf("AS %d metadata mismatch", i)
		}
		if len(a.Neighbors) != len(b.Neighbors) {
			t.Fatalf("AS %d neighbor count mismatch", i)
		}
		for j := range a.Neighbors {
			if a.Neighbors[j] != b.Neighbors[j] {
				t.Fatalf("AS %d neighbor %d mismatch", i, j)
			}
		}
		if len(a.Routers) != len(b.Routers) || len(a.Hosts) != len(b.Hosts) {
			t.Fatalf("AS %d membership mismatch", i)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := []string{
		``, // no root
		`massf [ node [ kind router as 0 x 0 ] ]`,                                            // missing y
		`massf [ node [ kind router as 0 x 0 y 0 ] link [ a 0 b 9 latency 1 bandwidth 1 ] ]`, // link out of range
		`massf [ as [ id 0 class alien defaultBorder -1 ] ]`,                                 // bad class
		`massf [ node [ kind router as 0 x 0 y 0 ] link [ a 0 b 0 latency 1 bandwidth 1 ] ]`, // self link
		`massf [ node [ kind router as -1 x 0 y 0 ] ]`,                                       // negative AS
	}
	for _, c := range cases {
		if _, err := ReadNetwork(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

// TestDecodeValidatesLinks: a link whose latency or bandwidth would divide
// by zero downstream (mapping weights, queue service times, routing costs)
// is refused at decode, naming the link.
func TestDecodeValidatesLinks(t *testing.T) {
	for _, c := range []struct {
		name        string
		latency, bw int64
		want        string
	}{
		{"zero latency", 0, model.Bps1G, "link 5 has non-positive latency 0"},
		{"negative latency", -10_000, model.Bps1G, "link 5 has non-positive latency -10000"},
		{"zero bandwidth", 10_000, 0, "link 5 has non-positive bandwidth 0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 40, Hosts: 10, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			net.Links[5].Latency, net.Links[5].Bandwidth = c.latency, c.bw
			var sb strings.Builder
			if err := WriteNetwork(&sb, net); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadNetwork(strings.NewReader(sb.String())); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("ReadNetwork returned %v, want an error containing %q", err, c.want)
			}
		})
	}
}

// Property: Format/Parse round-trips arbitrary trees of sanitized keys and
// atoms.
func TestQuickRoundTrip(t *testing.T) {
	sanitize := func(s string) string {
		if s == "" {
			return "k"
		}
		out := []rune{}
		for _, r := range s {
			if r > ' ' && r != '[' && r != ']' && r != '#' && r != '"' && r < 127 {
				out = append(out, r)
			}
		}
		if len(out) == 0 {
			return "k"
		}
		return string(out)
	}
	f := func(keys []string, atoms []string) bool {
		var pairs []Pair
		for i, k := range keys {
			k = sanitize(k)
			if i < len(atoms) {
				pairs = append(pairs, P(k, sanitize(atoms[i])))
			} else {
				pairs = append(pairs, L(k, P("n", i)))
			}
		}
		text := Format(pairs)
		back, err := Parse(strings.NewReader(text))
		if err != nil {
			return false
		}
		return Format(back) == text
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
