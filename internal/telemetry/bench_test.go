package telemetry

import (
	"io"
	"testing"
)

// Per-window cost of Publish, the one telemetry call the parallel engine's
// leader makes per executed window (16 engines, saturated ring, a Net func
// returning fixed totals; linux/amd64, 2-vCPU Xeon, go1.24):
//
//	BenchmarkWindowPublish/telemetry-2     ~265 ns/op     0 B/op  0 allocs/op
//
// With a live subscriber attached, every record is also deep-copied onto
// the subscriber's channel (same machine):
//
//	BenchmarkTraceRecord-2                 ~0.7 µs/op   771 B/op  6 allocs/op
//
// One publication happens per executed window, on the leader only, so even
// at 10k windows per wall second Publish adds a few ms/s. The record's
// per-engine slices come from the ring's recycling pool (Ring.Get), so a
// saturated ring publishes with zero allocations.
// Re-run with: go test ./internal/telemetry -run X -bench 'WindowPublish|TraceRecord' -benchmem

func benchScratch(n int) (ev, rem []uint64, wait []int64, depth []int, comp, exch []int64) {
	ev = make([]uint64, n)
	rem = make([]uint64, n)
	wait = make([]int64, n)
	depth = make([]int, n)
	comp = make([]int64, n)
	exch = make([]int64, n)
	for i := 0; i < n; i++ {
		ev[i] = uint64(100 + i)
		rem[i] = uint64(i)
		wait[i] = int64(1000 * i)
		depth[i] = 5 + i
		comp[i] = int64(20_000 + i)
		exch[i] = 2_000
	}
	return
}

func BenchmarkWindowPublish(b *testing.B) {
	const engines = 16
	b.Run("telemetry", func(b *testing.B) {
		tel := New(engines, 4096)
		tel.Net = func() NetTotals { return NetTotals{LinkBits: 1 << 20, FlowsStarted: 12} }
		w := tel.Windows.Get(engines)
		ev, rem, wait, depth, comp, exch := benchScratch(engines)
		copy(w.Events, ev)
		copy(w.RemoteSends, rem)
		copy(w.BarrierWaitNS, wait)
		copy(w.QueueDepth, depth)
		copy(w.ComputeNS, comp)
		copy(w.ExchangeNS, exch)
		w.WallNS, w.MaxBusyNS = 50_000, 42_000
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.StartNS, w.EndNS = int64(i)*1_000_000, int64(i+1)*1_000_000
			tel.Publish(&w)
		}
	})
}

func BenchmarkTraceRecord(b *testing.B) {
	const engines = 16
	ev, rem, wait, depth, comp, exch := benchScratch(engines)
	ring := NewRing(4096)
	// One slow subscriber attached, as when a live stream is being watched.
	_, ch, cancel := ring.Subscribe(16)
	defer cancel()
	go func() {
		for range ch {
		}
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := ring.Get(engines)
		rec.StartNS = int64(i)
		rec.WallNS = 50_000
		copy(rec.Events, ev)
		copy(rec.RemoteSends, rem)
		copy(rec.BarrierWaitNS, wait)
		copy(rec.QueueDepth, depth)
		copy(rec.ComputeNS, comp)
		copy(rec.ExchangeNS, exch)
		ring.Append(rec)
	}
}

func BenchmarkChromeTraceExport(b *testing.B) {
	recs := syntheticRecords(16, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTraceEvents(io.Discard, BuildTraceEvents(recs, nil), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// syntheticRecords lives in trace_test.go.
