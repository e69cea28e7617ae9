package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// Le is the inclusive upper bound.
	Le int64 `json:"le"`
	// Count is the cumulative observation count at or below Le.
	Count uint64 `json:"count"`
}

// Point is a point-in-time snapshot of one metric, the input of the
// Prometheus writer.
type Point struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Help   string            `json:"help,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value holds counter and gauge values.
	Value float64 `json:"value"`
	// Sum, Count and Buckets hold histogram state. Buckets are cumulative;
	// the overflow bucket is omitted (Count carries it).
	Sum     float64  `json:"sum,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

func promLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

func promLabelsWith(labels map[string]string, key, value string) string {
	merged := make(map[string]string, len(labels)+1)
	for k, v := range labels {
		merged[k] = v
	}
	merged[key] = value
	return promLabels(merged)
}

// WritePrometheus renders points in the Prometheus text exposition format.
// Each metric name is one group — its HELP/TYPE header once, then every
// sample of that name — with the groups in the order their names first
// appear, so points gathered from several runs (distinguished by labels)
// merge into one family each.
func WritePrometheus(w io.Writer, points []Point) error {
	var names []string
	byName := map[string][]*Point{}
	for i := range points {
		p := &points[i]
		if _, ok := byName[p.Name]; !ok {
			names = append(names, p.Name)
		}
		byName[p.Name] = append(byName[p.Name], p)
	}
	for _, name := range names {
		group := byName[name]
		if help := group[0].Help; help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, group[0].Kind); err != nil {
			return err
		}
		for _, p := range group {
			if err := writeSample(w, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSample writes one point's sample lines.
func writeSample(w io.Writer, p *Point) error {
	if p.Kind != "histogram" {
		_, err := fmt.Fprintf(w, "%s%s %g\n", p.Name, promLabels(p.Labels), p.Value)
		return err
	}
	for _, b := range p.Buckets {
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			p.Name, promLabelsWith(p.Labels, "le", fmt.Sprint(b.Le)), b.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		p.Name, promLabelsWith(p.Labels, "le", "+Inf"), p.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", p.Name, promLabels(p.Labels), p.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", p.Name, promLabels(p.Labels), p.Count)
	return err
}
