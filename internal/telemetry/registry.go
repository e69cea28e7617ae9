// Package telemetry is the live observability subsystem of the simulator:
// a lock-cheap metrics registry (counters, gauges and histograms whose hot
// paths are single atomic operations) plus a per-window trace ring buffer
// (ring.go) that the parallel engine publishes barrier-window records into.
//
// The registry is wired into the engines through SimTelemetry (sim.go):
// internal/pdes records per-engine per-window event counts, barrier wait
// time, cross-partition exchange volume and the event queue depths it
// reads from each engine's kernel; internal/netsim contributes link
// utilization (transmitted bits), queue drops and TCP retransmissions.
// Everything is optional — a nil *SimTelemetry disables instrumentation
// entirely, and the engine hot loops only pay a nil check.
//
// Snapshots are exposed in the Prometheus text exposition format
// (WritePrometheus), built from Gather output so aggregators (cmd/massfd)
// can merge registries from many concurrent runs under distinguishing
// labels.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; Add/Inc are single atomic operations.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax raises the gauge to v if v exceeds the current value.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram of int64 observations (typically
// nanosecond durations). Observe is a short linear scan plus two atomic
// adds; bucket bounds are immutable after creation.
type Histogram struct {
	bounds []int64         // ascending upper bounds (inclusive)
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	sum    atomic.Int64
	count  atomic.Uint64
}

// DefaultDurationBounds are nanosecond bucket bounds from 1 µs to 1 s,
// suitable for barrier waits and window wall times.
func DefaultDurationBounds() []int64 {
	return []int64{
		1_000, 5_000, 10_000, 50_000, 100_000, 500_000,
		1_000_000, 5_000_000, 10_000_000, 50_000_000, 100_000_000, 1_000_000_000,
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Label is one metric dimension, e.g. {Key: "engine", Value: "3"}.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

type kind uint8

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered instrument.
type metric struct {
	name   string
	help   string
	labels []Label
	kind   kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named metrics. Registration (Counter/Gauge/Histogram)
// takes a mutex; the returned instruments are lock-free, so the hot path
// never touches the registry again. Get-or-create semantics make repeated
// registration of the same (name, labels) pair return the same instrument.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	index   map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

func labelKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('\x00')
		b.WriteString(l.Key)
		b.WriteByte('\x01')
		b.WriteString(l.Value)
	}
	return b.String()
}

func (r *Registry) lookup(k kind, name, help string, labels []Label) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := labelKey(name, labels)
	if m, ok := r.index[key]; ok {
		if m.kind != k {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %v (was %v)", name, k, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, labels: labels, kind: k}
	switch k {
	case counterKind:
		m.c = &Counter{}
	case gaugeKind:
		m.g = &Gauge{}
	case histogramKind:
		bounds := DefaultDurationBounds()
		m.h = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	}
	r.index[key] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter returns the counter registered under (name, labels), creating it
// if needed.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(counterKind, name, help, labels).c
}

// Gauge returns the gauge registered under (name, labels), creating it if
// needed.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(gaugeKind, name, help, labels).g
}

// Histogram returns the histogram registered under (name, labels) with the
// given bucket bounds (nil for DefaultDurationBounds), creating it if
// needed. Bounds of an existing histogram are not changed.
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	r.mu.Lock()
	key := labelKey(name, labels)
	if m, ok := r.index[key]; ok {
		r.mu.Unlock()
		if m.kind != histogramKind {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as histogram (was %v)", name, m.kind))
		}
		return m.h
	}
	if bounds == nil {
		bounds = DefaultDurationBounds()
	}
	m := &metric{name: name, help: help, labels: labels, kind: histogramKind,
		h: &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}}
	r.index[key] = m
	r.metrics = append(r.metrics, m)
	r.mu.Unlock()
	return m.h
}

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

// Gather snapshots every registered metric, appending extra labels (e.g. a
// run ID) to each point.
func (r *Registry) Gather(extra ...Label) []Point {
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()

	points := make([]Point, 0, len(metrics))
	for _, m := range metrics {
		p := Point{Name: m.name, Kind: m.kind.String(), Help: m.help}
		if n := len(m.labels) + len(extra); n > 0 {
			p.Labels = make(map[string]string, n)
			for _, l := range m.labels {
				p.Labels[l.Key] = l.Value
			}
			for _, l := range extra {
				p.Labels[l.Key] = l.Value
			}
		}
		switch m.kind {
		case counterKind:
			p.Value = float64(m.c.Load())
		case gaugeKind:
			p.Value = float64(m.g.Load())
		case histogramKind:
			var cum uint64
			p.Buckets = make([]Bucket, len(m.h.bounds))
			for i, b := range m.h.bounds {
				cum += m.h.counts[i].Load()
				p.Buckets[i] = Bucket{Le: b, Count: cum}
			}
			p.Count = m.h.Count()
			p.Sum = float64(m.h.Sum())
		}
		points = append(points, p)
	}
	return points
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
// HELP/TYPE headers are emitted once per metric name, so points gathered
// from several registries (distinguished by labels) merge cleanly.
func WritePrometheus(w io.Writer, points []Point) error {
	seen := map[string]bool{}
	for i := range points {
		p := &points[i]
		if !seen[p.Name] {
			seen[p.Name] = true
			if p.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", p.Name, p.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", p.Name, p.Kind); err != nil {
				return err
			}
		}
		switch p.Kind {
		case "histogram":
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
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", p.Name, promLabels(p.Labels), p.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %g\n", p.Name, promLabels(p.Labels), p.Value); err != nil {
				return err
			}
		}
	}
	return nil
}
