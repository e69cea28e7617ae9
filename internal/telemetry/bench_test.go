package telemetry

import (
	"io"
	"testing"
)

// Per-window overhead of the flight recorder, measured on the machine
// this change was developed on (linux/amd64, Xeon @ 2.10GHz):
//
//	BenchmarkWindowPublish/telemetry-16    ~360 ns/op     0 B/op  0 allocs/op (saturated ring)
//	BenchmarkWindowPublish/nil-16          ~3.5 ns/op     0 B/op  0 allocs/op
//
// With a live subscriber attached, every record is also deep-copied onto
// the subscriber's channel (linux/amd64, 2-vCPU Xeon):
//
//	BenchmarkTraceRecord-2                 ~1.1 µs/op   773 B/op  6 allocs/op
//
// One publication happens per barrier window on engine 0 only, so even at
// 10k windows per wall second the recorder adds ~3 ms/s (≈0.3%) — well
// within the ~5% telemetry budget the Fig6 bench allows. The record's
// per-engine slices come from the ring's recycling pool (Ring.Get), so a
// saturated ring publishes with zero allocations; before the pool this
// path cost 6 allocs/op for the slice snapshots.
// Re-run with: go test ./internal/telemetry -bench 'WindowPublish|TraceRecord' -benchmem

// publishLike replays exactly the instrument updates pdes.(*Sim).publishWindow
// performs per barrier window, against scratch slices of n engines.
func publishLike(tel *SimTelemetry, w int, ev, rem []uint64, wait []int64, depth []int, comp, exch []int64) {
	if tel == nil {
		return
	}
	n := len(ev)
	rec := tel.Windows.Get(n)
	rec.Window = w
	rec.StartNS = int64(w) * 1_000_000
	rec.EndNS = int64(w+1) * 1_000_000
	rec.WallNS = 50_000
	rec.MaxBusyNS = 42_000
	copy(rec.Events, ev)
	copy(rec.RemoteSends, rem)
	copy(rec.ComputeNS, comp)
	copy(rec.BarrierWaitNS, wait)
	copy(rec.ExchangeNS, exch)
	copy(rec.QueueDepth, depth)
	var sumEv, sumRem uint64
	var sumDepth, maxDepth int64
	for i := 0; i < n; i++ {
		sumEv += ev[i]
		sumRem += rem[i]
		sumDepth += int64(depth[i])
		if int64(depth[i]) > maxDepth {
			maxDepth = int64(depth[i])
		}
	}
	rec.Remote = sumRem
	tel.Windows.Append(rec)
	tel.Events.Add(sumEv)
	tel.RemoteEvents.Add(sumRem)
	tel.WindowsDone.Inc()
	tel.SimTimeNS.Set(rec.EndNS)
	tel.QueueDepth.Set(sumDepth)
	tel.PeakQueue.SetMax(maxDepth)
	tel.WindowWall.Observe(rec.WallNS)
	if len(tel.EngineEvents) == n {
		for i := 0; i < n; i++ {
			tel.EngineEvents[i].Add(ev[i])
		}
	}
}

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
	ev, rem, wait, depth, comp, exch := benchScratch(engines)
	b.Run("telemetry", func(b *testing.B) {
		tel := New(engines, 4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			publishLike(tel, i, ev, rem, wait, depth, comp, exch)
		}
	})
	b.Run("nil", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			publishLike(nil, i, ev, rem, wait, depth, comp, exch)
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
		rec.Window = i
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
