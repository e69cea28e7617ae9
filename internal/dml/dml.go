// Package dml implements a Domain Model Language in the style of SSFNet's
// DML, which MaSSF uses as its network configuration format ("a network
// configuration interface similar to SSFNet", Section 2.1; "the simulator
// input Domain Model Language (DML) file", Section 5.1.2). DML is a
// recursive attribute list:
//
//	Net [
//	  frequency 1000000000
//	  router [ id 0 ]
//	  link [ attach 0 attach 1 delay 0.005 ]  # keys may repeat
//	]
//
// The package provides a parser, a pretty-printer, lookup helpers, and the
// encoding of model.Network to and from DML (network.go), so generated
// topologies are materialized as files the simulator loads back.
package dml

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Value is either an atom (leaf string) or a nested attribute list.
type Value struct {
	Atom string
	List []Pair
	leaf bool
}

// AtomValue returns a leaf value.
func AtomValue(s string) Value { return Value{Atom: s, leaf: true} }

// ListValue returns a composite value.
func ListValue(pairs ...Pair) Value { return Value{List: pairs} }

// IsAtom reports whether v is a leaf.
func (v Value) IsAtom() bool { return v.leaf }

// Pair is one key/value attribute. Keys may repeat within a list.
type Pair struct {
	Key   string
	Value Value
}

// P builds a Pair with an atom value formatted from x.
func P(key string, x any) Pair {
	return Pair{Key: key, Value: AtomValue(fmt.Sprint(x))}
}

// L builds a Pair with a nested list value.
func L(key string, pairs ...Pair) Pair {
	return Pair{Key: key, Value: ListValue(pairs...)}
}

// Find returns every value bound to key in pairs, in order.
func Find(pairs []Pair, key string) []Value {
	var out []Value
	for _, p := range pairs {
		if p.Key == key {
			out = append(out, p.Value)
		}
	}
	return out
}

// First returns the first value bound to key.
func First(pairs []Pair, key string) (Value, bool) {
	for _, p := range pairs {
		if p.Key == key {
			return p.Value, true
		}
	}
	return Value{}, false
}

// Atom returns the first atom bound to key.
func Atom(pairs []Pair, key string) (string, bool) {
	v, ok := First(pairs, key)
	if !ok || !v.IsAtom() {
		return "", false
	}
	return v.Atom, true
}

// Int returns the first atom bound to key parsed as int64.
func Int(pairs []Pair, key string) (int64, error) {
	a, ok := Atom(pairs, key)
	if !ok {
		return 0, fmt.Errorf("dml: missing key %q", key)
	}
	n, err := strconv.ParseInt(a, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("dml: key %q: %w", key, err)
	}
	return n, nil
}

// Float returns the first atom bound to key parsed as float64.
func Float(pairs []Pair, key string) (float64, error) {
	a, ok := Atom(pairs, key)
	if !ok {
		return 0, fmt.Errorf("dml: missing key %q", key)
	}
	f, err := strconv.ParseFloat(a, 64)
	if err != nil {
		return 0, fmt.Errorf("dml: key %q: %w", key, err)
	}
	return f, nil
}

// tokenizer yields DML tokens: "[", "]", atoms, with # comments skipped.
type tokenizer struct {
	r    *bufio.Reader
	line int
}

func (t *tokenizer) next() (string, error) {
	for {
		c, _, err := t.r.ReadRune()
		if err != nil {
			return "", err
		}
		switch {
		case c == '\n':
			t.line++
		case c == ' ' || c == '\t' || c == '\r':
		case c == '#':
			for {
				c, _, err = t.r.ReadRune()
				if err != nil {
					return "", err
				}
				if c == '\n' {
					t.line++
					break
				}
			}
		case c == '[' || c == ']':
			return string(c), nil
		case c == '"':
			var sb strings.Builder
			for {
				c, _, err = t.r.ReadRune()
				if err != nil {
					return "", fmt.Errorf("dml: line %d: unterminated string", t.line+1)
				}
				if c == '"' {
					return `"` + sb.String(), nil // marker prefix distinguishes quoted atoms
				}
				if c == '\n' {
					t.line++
				}
				sb.WriteRune(c)
			}
		default:
			var sb strings.Builder
			sb.WriteRune(c)
			for {
				c, _, err = t.r.ReadRune()
				if err != nil {
					return sb.String(), nil
				}
				if c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '[' || c == ']' || c == '#' {
					t.r.UnreadRune()
					return sb.String(), nil
				}
				sb.WriteRune(c)
			}
		}
	}
}

// Parse reads a DML document: a sequence of key/value attributes.
func Parse(r io.Reader) ([]Pair, error) {
	t := &tokenizer{r: bufio.NewReader(r)}
	pairs, err := parseList(t, false)
	if err != nil {
		return nil, err
	}
	return pairs, nil
}

func parseList(t *tokenizer, nested bool) ([]Pair, error) {
	var pairs []Pair
	for {
		key, err := t.next()
		if err == io.EOF {
			if nested {
				return nil, fmt.Errorf("dml: line %d: unexpected EOF inside [ ]", t.line+1)
			}
			return pairs, nil
		}
		if err != nil {
			return nil, err
		}
		if key == "]" {
			if !nested {
				return nil, fmt.Errorf("dml: line %d: unmatched ]", t.line+1)
			}
			return pairs, nil
		}
		if key == "[" {
			return nil, fmt.Errorf("dml: line %d: [ without a key", t.line+1)
		}
		key = strings.TrimPrefix(key, `"`)
		val, err := t.next()
		if err != nil {
			return nil, fmt.Errorf("dml: line %d: key %q has no value", t.line+1, key)
		}
		switch val {
		case "[":
			sub, err := parseList(t, true)
			if err != nil {
				return nil, err
			}
			pairs = append(pairs, Pair{Key: key, Value: ListValue(sub...)})
		case "]":
			return nil, fmt.Errorf("dml: line %d: key %q followed by ]", t.line+1, key)
		default:
			pairs = append(pairs, Pair{Key: key, Value: AtomValue(strings.TrimPrefix(val, `"`))})
		}
	}
}

// Format renders pairs as indented DML text.
func Format(pairs []Pair) string {
	var sb strings.Builder
	formatList(&sb, pairs, 0)
	return sb.String()
}

func formatList(sb *strings.Builder, pairs []Pair, depth int) {
	indent := strings.Repeat("  ", depth)
	for _, p := range pairs {
		if p.Value.IsAtom() {
			fmt.Fprintf(sb, "%s%s %s\n", indent, p.Key, quoteIfNeeded(p.Value.Atom))
			continue
		}
		fmt.Fprintf(sb, "%s%s [\n", indent, p.Key)
		formatList(sb, p.Value.List, depth+1)
		fmt.Fprintf(sb, "%s]\n", indent)
	}
}

func quoteIfNeeded(s string) string {
	if s == "" || strings.ContainsAny(s, " \t\n[]#\"") {
		return `"` + strings.ReplaceAll(s, `"`, ``) + `"`
	}
	return s
}
