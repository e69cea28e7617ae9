package telemetry

import (
	"io"
	"testing"
)

// Per-window cost of Publish, the one telemetry call the parallel engine's
// leader makes per executed window (16 engines, saturated ring, a Net func
// returning fixed totals; linux/amd64, 2-vCPU Xeon, go1.24):
//
//	BenchmarkWindowPublish/telemetry-2     ~0.8 µs/op   770 B/op  6 allocs/op
//
// The six allocations are the record's own per-engine slices: a published
// record never changes, so every reader shares it and nothing is copied
// on the way out. With a live subscriber attached (same machine):
//
//	BenchmarkTraceRecord-2                 ~1.0 µs/op   770 B/op  6 allocs/op
//
// One publication happens per executed window, on the leader only, so even
// at 10k windows per wall second Publish adds under 10 ms/s.
// Re-run with: go test ./internal/telemetry -run X -bench 'WindowPublish|TraceRecord' -benchmem

// benchScratch is a filled-in scratch record for n engines, as the
// parallel engine's leader hands it to Publish.
func benchScratch(n int) WindowRecord {
	w := WindowRecord{
		Events: make([]uint64, n), RemoteSends: make([]uint64, n),
		ComputeNS: make([]int64, n), BarrierWaitNS: make([]int64, n),
		ExchangeNS: make([]int64, n), QueueDepth: make([]int, n),
		WallNS: 50_000, MaxBusyNS: 42_000,
	}
	for i := 0; i < n; i++ {
		w.Events[i] = uint64(100 + i)
		w.RemoteSends[i] = uint64(i)
		w.BarrierWaitNS[i] = int64(1000 * i)
		w.QueueDepth[i] = 5 + i
		w.ComputeNS[i] = int64(20_000 + i)
		w.ExchangeNS[i] = 2_000
	}
	return w
}

func BenchmarkWindowPublish(b *testing.B) {
	const engines = 16
	b.Run("telemetry", func(b *testing.B) {
		tel := New(engines, 4096)
		tel.Net = func() NetTotals { return NetTotals{LinkBits: 1 << 20, FlowsStarted: 12} }
		w := benchScratch(engines)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.StartNS, w.EndNS = int64(i)*1_000_000, int64(i+1)*1_000_000
			tel.Publish(&w)
		}
	})
}

func BenchmarkTraceRecord(b *testing.B) {
	const engines = 16
	tel := New(engines, 4096)
	w := benchScratch(engines)
	// One slow subscriber attached, as when a live stream is being watched.
	_, ch, cancel := tel.Windows.Subscribe(16)
	defer cancel()
	go func() {
		for range ch {
		}
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.StartNS = int64(i)
		tel.Publish(&w)
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
